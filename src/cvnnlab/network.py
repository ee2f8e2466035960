"""Complex-valued networks: construction, forward pass, backprop, SGD, checkpoints.

Layers are immutable specs; a :class:`Network` owns the complex parameters.
Backprop runs as real backprop on (re, im) pairs: loss gradients with respect
to a complex quantity q = a + bi are carried as the complex number
dL/da + i dL/db, so complex arrays serve as gradient containers and the
activation 2x2 Jacobians plug in uniformly (none of the supported
activations is holomorphic).

Dense layers store W with shape (in_dim, out_dim) and compute x @ W + H on
row-major batches.  Conv layers run stride-1 valid cross-correlation with a
(kh, kw, cin, cout) kernel on (n, h, w, c) batches; their forward pass,
input gradient and kernel gradient all come from :mod:`cvnnlab.conv`, the
one operator that spectral analysis also measures.  Max pooling selects the
entry of largest modulus per window (ties: first in row-major order).  The
abs head maps a complex feature vector to entry moduli followed by softmax.

Thresholds are always added in the forward pass; they stay at zero unless
the network was built with ``train_thresholds=True`` (the bound machinery
assumes threshold-free networks and warns otherwise).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import conv
from .activations import Activation, apply as act_apply, backprop as act_backprop

__all__ = [
    "Dense",
    "Conv",
    "MaxPoolModulus",
    "AbsHead",
    "Network",
    "LossKind",
    "build_network",
    "infer_shapes",
    "weighted_layer_count",
    "max_width",
    "forward",
    "backward",
    "compute_loss",
    "per_sample_losses",
    "SgdState",
    "sgd_init",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
    "MalformedCheckpointError",
    "CheckpointVersionError",
    "CheckpointShapeError",
]

CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# layer specs


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    activation: Activation | None = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("dense dimensions must be positive")


@dataclass(frozen=True)
class Conv:
    """Stride-1, valid-padding convolutional layer."""

    kernel_h: int
    kernel_w: int
    in_channels: int
    out_channels: int
    activation: Activation | None = None

    def __post_init__(self):
        if min(self.kernel_h, self.kernel_w, self.in_channels, self.out_channels) < 1:
            raise ValueError("conv dimensions must be positive")


@dataclass(frozen=True)
class MaxPoolModulus:
    window: int = 2

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("pool window must be positive")


@dataclass(frozen=True)
class AbsHead:
    out_classes: int

    def __post_init__(self):
        if self.out_classes < 1:
            raise ValueError("out_classes must be positive")


LayerSpec = Dense | Conv | MaxPoolModulus | AbsHead


def infer_shapes(layers, input_shape):
    """Feature shape after each layer, starting from ``input_shape``.

    ``input_shape`` is (d,) for dense inputs or (h, w, c) for images.
    Raises ValueError when consecutive layers do not compose or when an
    AbsHead appears anywhere but last.
    """
    shapes = [tuple(int(s) for s in input_shape)]
    cur = shapes[0]
    for pos, spec in enumerate(layers):
        if isinstance(spec, AbsHead) and pos != len(layers) - 1:
            raise ValueError("abs head must be the final layer")
        if isinstance(spec, Dense):
            flat = int(np.prod(cur))
            if flat != spec.in_dim:
                raise ValueError(
                    f"layer {pos}: dense expects {spec.in_dim} inputs, got {flat}"
                )
            cur = (spec.out_dim,)
        elif isinstance(spec, Conv):
            if len(cur) != 3:
                raise ValueError(f"layer {pos}: conv needs (h, w, c) input, got {cur}")
            h, w, c = cur
            if c != spec.in_channels:
                raise ValueError(
                    f"layer {pos}: conv expects {spec.in_channels} channels, got {c}"
                )
            oh, ow = h - spec.kernel_h + 1, w - spec.kernel_w + 1
            if oh < 1 or ow < 1:
                raise ValueError(f"layer {pos}: kernel larger than input {cur}")
            cur = (oh, ow, spec.out_channels)
        elif isinstance(spec, MaxPoolModulus):
            if len(cur) != 3:
                raise ValueError(f"layer {pos}: pool needs (h, w, c) input, got {cur}")
            h, w, c = cur
            oh, ow = h // spec.window, w // spec.window
            if oh < 1 or ow < 1:
                raise ValueError(f"layer {pos}: pool window exceeds input {cur}")
            cur = (oh, ow, c)
        elif isinstance(spec, AbsHead):
            flat = int(np.prod(cur))
            if flat != spec.out_classes:
                raise ValueError(
                    f"abs head expects {spec.out_classes} features, got {flat}"
                )
            cur = (spec.out_classes,)
        else:
            raise TypeError(f"unknown layer spec {spec!r}")
        shapes.append(cur)
    return shapes


class Network:
    """Layer specs plus their complex parameters."""

    def __init__(self, layers, weights, thresholds, train_thresholds=False):
        self.layers = tuple(layers)
        self.weights = list(weights)
        self.thresholds = list(thresholds)
        self.train_thresholds = bool(train_thresholds)
        if len(self.weights) != len(self.layers) or len(self.thresholds) != len(self.layers):
            raise ValueError("parameter lists must align with layers")
        for spec, w, h in zip(self.layers, self.weights, self.thresholds):
            if isinstance(spec, Dense):
                if w is None or w.shape != (spec.in_dim, spec.out_dim):
                    raise ValueError(f"dense weight shape mismatch for {spec}")
                if h is None or h.shape != (spec.out_dim,):
                    raise ValueError(f"dense threshold shape mismatch for {spec}")
            elif isinstance(spec, Conv):
                kshape = (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels)
                if w is None or w.shape != kshape:
                    raise ValueError(f"conv kernel shape mismatch for {spec}")
                if h is None or h.shape != (spec.out_channels,):
                    raise ValueError(f"conv threshold shape mismatch for {spec}")
            elif w is not None or h is not None:
                raise ValueError(f"{type(spec).__name__} carries no parameters")
        for arr in self.weights + self.thresholds:
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")


def build_network(layers, seed=0, train_thresholds=False) -> Network:
    """Fresh network with re/im weight parts ~ N(0, 1/(2 fan_in)), zero thresholds."""
    rng = np.random.default_rng(seed)
    weights, thresholds = [], []
    for spec in layers:
        if isinstance(spec, Dense):
            std = math.sqrt(1.0 / (2.0 * spec.in_dim))
            shape = (spec.in_dim, spec.out_dim)
            w = std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            weights.append(w)
            thresholds.append(np.zeros(spec.out_dim, dtype=np.complex128))
        elif isinstance(spec, Conv):
            fan_in = spec.kernel_h * spec.kernel_w * spec.in_channels
            std = math.sqrt(1.0 / (2.0 * fan_in))
            shape = (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels)
            w = std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            weights.append(w)
            thresholds.append(np.zeros(spec.out_channels, dtype=np.complex128))
        else:
            weights.append(None)
            thresholds.append(None)
    return Network(layers, weights, thresholds, train_thresholds=train_thresholds)


def weighted_layer_count(net: Network) -> int:
    return sum(isinstance(s, (Dense, Conv)) for s in net.layers)


def max_width(net: Network, input_shape) -> int:
    """Largest flattened feature dimension at any layer boundary."""
    shapes = infer_shapes(net.layers, input_shape)
    return max(int(np.prod(s)) for s in shapes)


# ---------------------------------------------------------------------------
# forward / backward


def _pool_forward(x, window):
    n, h, w, c = x.shape
    oh, ow = h // window, w // window
    v = x[:, : oh * window, : ow * window, :]
    v = v.reshape(n, oh, window, ow, window, c).transpose(0, 1, 3, 2, 4, 5)
    v = v.reshape(n, oh, ow, window * window, c)
    # argmax on moduli returns the first maximum: row-major tie-break
    idx = np.argmax(np.abs(v), axis=3)
    out = np.take_along_axis(v, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, idx


def _softmax(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _forward_walk(net: Network, x, keep_caches):
    caches = []
    cur = x
    for spec, w, h in zip(net.layers, net.weights, net.thresholds):
        cache = {"input_shape": cur.shape}
        if isinstance(spec, Dense):
            flat = cur.reshape(cur.shape[0], -1) if cur.ndim > 2 else cur
            pre = flat @ w + h
            out = act_apply(spec.activation, pre) if spec.activation else pre
            if keep_caches:
                cache.update(x=flat, pre=pre)
        elif isinstance(spec, Conv):
            pre, patches = conv.apply(cur, w)
            pre = pre + h
            out = act_apply(spec.activation, pre) if spec.activation else pre
            if keep_caches:
                cache.update(patches=patches, pre=pre)
        elif isinstance(spec, MaxPoolModulus):
            out, idx = _pool_forward(cur, spec.window)
            if keep_caches:
                cache.update(idx=idx)
        elif isinstance(spec, AbsHead):
            flat = cur.reshape(cur.shape[0], -1) if cur.ndim > 2 else cur
            scores = np.abs(flat)
            out = _softmax(scores)
            if keep_caches:
                cache.update(x=flat)
        else:  # pragma: no cover
            raise TypeError(spec)
        caches.append(cache)
        cur = out
    return cur, caches


def forward(net: Network, batch):
    """Network output for a batch; real softmax probabilities after an abs head,
    a complex feature matrix otherwise."""
    batch = np.asarray(batch)
    if not np.iscomplexobj(batch):
        batch = batch.astype(np.complex128)
    infer_shapes(net.layers, _input_shape_of(net, batch))  # validates composition
    out, _ = _forward_walk(net, batch, keep_caches=False)
    return out


def _input_shape_of(net: Network, batch):
    if batch.ndim == 2:
        return (batch.shape[1],)
    if batch.ndim == 4:
        return batch.shape[1:]
    raise ValueError(f"batch must be (n, d) or (n, h, w, c), got {batch.shape}")


# ---------------------------------------------------------------------------
# losses


@dataclass
class LossKind:
    """Loss selector; ``m_ceiling`` records the largest per-sample loss seen."""

    kind: str  # "l2" | "cross_entropy"
    m_ceiling: float = 0.0

    def __post_init__(self):
        if self.kind not in ("l2", "cross_entropy"):
            raise ValueError(f"unknown loss kind {self.kind!r}")


def per_sample_losses(output, target, loss: LossKind) -> np.ndarray:
    if loss.kind == "l2":
        if not np.iscomplexobj(output):
            raise ValueError("l2 loss needs complex network output (no abs head)")
        out = np.atleast_2d(output)
        tgt = np.atleast_2d(np.asarray(target, dtype=np.complex128))
        if out.shape != tgt.shape:
            raise ValueError(f"shape mismatch: output {out.shape} vs target {tgt.shape}")
        return np.sqrt(np.sum(np.abs(out - tgt) ** 2, axis=1))
    # cross entropy on abs-head softmax probabilities
    if np.iscomplexobj(output):
        raise ValueError("cross-entropy loss needs abs-head class probabilities")
    probs = np.atleast_2d(output)
    labels = _checked_labels(target, probs)
    return -np.log(probs[np.arange(probs.shape[0]), labels])


def _checked_labels(target, probs):
    labels = np.asarray(target)
    if labels.ndim != 1 or labels.shape[0] != probs.shape[0]:
        raise ValueError("labels must be one integer per sample")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError("label out of range")
    return labels


def compute_loss(output, target, loss: LossKind, update_ceiling: bool = True) -> float:
    """Batch-mean loss; optionally advances the running per-sample ceiling M.

    The ceiling is meant to track training-set losses only, so evaluation
    passes on held-out data should pass ``update_ceiling=False``.
    """
    vals = per_sample_losses(output, target, loss)
    if update_ceiling and vals.size:
        loss.m_ceiling = max(loss.m_ceiling, float(vals.max()))
    return float(vals.mean()) if vals.size else 0.0


# ---------------------------------------------------------------------------
# backward


def backward(net: Network, batch, targets, loss: LossKind):
    """Gradients of the batch-mean loss for every parameter.

    Returns a list aligned with ``net.layers``: ``(dW, dH)`` complex arrays
    for weighted layers (re/im parts pair the partials w.r.t. the re/im
    parameter components), ``None`` elsewhere.
    """
    batch = np.asarray(batch)
    if not np.iscomplexobj(batch):
        batch = batch.astype(np.complex128)
    infer_shapes(net.layers, _input_shape_of(net, batch))
    out, caches = _forward_walk(net, batch, keep_caches=True)
    n = batch.shape[0]
    grads: list = [None] * len(net.layers)

    # gradient at the network output
    if loss.kind == "l2":
        tgt = np.atleast_2d(np.asarray(targets, dtype=np.complex128))
        if np.iscomplexobj(out) is False:
            raise ValueError("l2 loss needs complex network output (no abs head)")
        diff = out - tgt
        norms = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1, keepdims=True))
        scale = np.where(norms > 0.0, 1.0 / (n * np.where(norms > 0, norms, 1.0)), 0.0)
        grad = diff * scale
        start = len(net.layers)
    else:
        if not isinstance(net.layers[-1], AbsHead):
            raise ValueError("cross-entropy loss needs an abs head")
        labels = _checked_labels(targets, out)
        g_scores = out.copy()
        g_scores[np.arange(n), labels] -= 1.0
        g_scores /= n
        z = caches[-1]["x"]
        mods = np.abs(z)
        safe = np.where(mods > 0.0, mods, 1.0)
        grad = np.where(mods > 0.0, g_scores / safe, 0.0) * z
        grad = grad.reshape(caches[-1]["input_shape"])
        start = len(net.layers) - 1

    for pos in range(start - 1, -1, -1):
        spec = net.layers[pos]
        cache = caches[pos]
        if isinstance(spec, Dense):
            if spec.activation is not None:
                grad = act_backprop(spec.activation, cache["pre"], grad)
            x = cache["x"]
            dw = x.conj().T @ grad
            dh = grad.sum(axis=0)
            grads[pos] = (dw, dh)
            grad = (grad @ net.weights[pos].conj().T).reshape(cache["input_shape"])
        elif isinstance(spec, Conv):
            if spec.activation is not None:
                grad = act_backprop(spec.activation, cache["pre"], grad)
            kernel = net.weights[pos]
            dw = conv.weight_grad(cache["patches"], grad).reshape(kernel.shape)
            dh = grad.sum(axis=(0, 1, 2))
            grads[pos] = (dw, dh)
            grad = conv.adjoint(grad, kernel, cache["input_shape"])
        elif isinstance(spec, MaxPoolModulus):
            wdw = spec.window
            nb, oh, ow, c = grad.shape
            v = np.zeros((nb, oh, ow, wdw * wdw, c), dtype=np.complex128)
            np.put_along_axis(v, cache["idx"][:, :, :, None, :], grad[:, :, :, None, :], axis=3)
            v = v.reshape(nb, oh, ow, wdw, wdw, c).transpose(0, 1, 3, 2, 4, 5)
            v = v.reshape(nb, oh * wdw, ow * wdw, c)
            dx = np.zeros(cache["input_shape"], dtype=np.complex128)
            dx[:, : oh * wdw, : ow * wdw, :] = v
            grad = dx
        else:  # pragma: no cover - AbsHead handled at the top
            raise TypeError(spec)
    return grads


# ---------------------------------------------------------------------------
# SGD with momentum


@dataclass
class SgdState:
    velocities: list = field(default_factory=list)


def sgd_init(net: Network) -> SgdState:
    vel = []
    for w, h in zip(net.weights, net.thresholds):
        if w is None:
            vel.append(None)
        else:
            vel.append((np.zeros_like(w), np.zeros_like(h)))
    return SgdState(velocities=vel)


def sgd_step(net: Network, grads, lr: float, momentum: float, state: SgdState) -> None:
    """v <- momentum v + g; p <- p - lr v, applied to re/im parts independently.

    Mutates the network and state in place.  Thresholds move only when the
    network was built with trainable thresholds.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    for pos, g in enumerate(grads):
        if g is None:
            continue
        dw, dh = g
        vw, vh = state.velocities[pos]
        vw *= momentum
        vw += dw
        net.weights[pos] -= lr * vw
        vh *= momentum
        vh += dh
        if net.train_thresholds:
            net.thresholds[pos] -= lr * vh


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(Exception):
    pass


class MalformedCheckpointError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointShapeError(CheckpointError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _emit(obj, out):
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(v, out)
        out.append("}")
    else:  # pragma: no cover
        raise TypeError(f"cannot serialize {type(obj)}")


def _activation_to_json(act: Activation | None):
    if act is None:
        return None
    return {"kind": act.kind, "b": float(act.b)}


def _activation_from_json(doc):
    if doc is None:
        return None
    try:
        return Activation(doc["kind"], b=float(doc.get("b", 0.0)))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCheckpointError(f"bad activation record: {exc}") from exc


def _layer_to_json(spec: LayerSpec):
    if isinstance(spec, Dense):
        return {
            "type": "dense",
            "in_dim": spec.in_dim,
            "out_dim": spec.out_dim,
            "activation": _activation_to_json(spec.activation),
        }
    if isinstance(spec, Conv):
        return {
            "type": "conv",
            "kernel_h": spec.kernel_h,
            "kernel_w": spec.kernel_w,
            "in_channels": spec.in_channels,
            "out_channels": spec.out_channels,
            "activation": _activation_to_json(spec.activation),
        }
    if isinstance(spec, MaxPoolModulus):
        return {"type": "maxpool", "window": spec.window}
    if isinstance(spec, AbsHead):
        return {"type": "abshead", "out_classes": spec.out_classes}
    raise TypeError(spec)  # pragma: no cover


def _layer_from_json(doc):
    try:
        kind = doc["type"]
        if kind == "dense":
            return Dense(doc["in_dim"], doc["out_dim"], _activation_from_json(doc.get("activation")))
        if kind == "conv":
            return Conv(
                doc["kernel_h"],
                doc["kernel_w"],
                doc["in_channels"],
                doc["out_channels"],
                _activation_from_json(doc.get("activation")),
            )
        if kind == "maxpool":
            return MaxPoolModulus(doc["window"])
        if kind == "abshead":
            return AbsHead(doc["out_classes"])
    except (KeyError, TypeError) as exc:
        raise MalformedCheckpointError(f"bad layer record: {exc}") from exc
    raise MalformedCheckpointError(f"unknown layer type {doc.get('type')!r}")


def save_checkpoint(net: Network, path) -> None:
    """Write the network as a self-describing JSON document.

    Floats carry 17 significant digits, which round-trips doubles exactly.
    """
    params = []
    for w, h in zip(net.weights, net.thresholds):
        if w is None:
            params.append(None)
        else:
            params.append(
                {
                    "weight_re": [float(v) for v in w.real.ravel()],
                    "weight_im": [float(v) for v in w.imag.ravel()],
                    "threshold_re": [float(v) for v in h.real.ravel()],
                    "threshold_im": [float(v) for v in h.imag.ravel()],
                }
            )
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "train_thresholds": net.train_thresholds,
        "layers": [_layer_to_json(s) for s in net.layers],
        "params": params,
    }
    out: list = []
    _emit(doc, out)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("".join(out))
        fh.write("\n")


def _param_array(doc, key, shape):
    try:
        re = np.asarray(doc[key + "_re"], dtype=float)
        im = np.asarray(doc[key + "_im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCheckpointError(f"bad parameter arrays for {key}: {exc}") from exc
    expected = int(np.prod(shape))
    if re.size != expected or im.size != expected:
        raise CheckpointShapeError(
            f"{key}: expected {expected} values, got {re.size}/{im.size}"
        )
    arr = (re + 1j * im).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise MalformedCheckpointError(f"{key}: non-finite values")
    return arr


def load_checkpoint(path) -> Network:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedCheckpointError(f"cannot parse checkpoint: {exc}") from exc
    except OSError as exc:
        raise MalformedCheckpointError(f"cannot read checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedCheckpointError("checkpoint root must be an object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported format_version {version!r}")
    layers_doc = doc.get("layers")
    params_doc = doc.get("params")
    if not isinstance(layers_doc, list) or not isinstance(params_doc, list):
        raise MalformedCheckpointError("missing layers/params lists")
    if len(layers_doc) != len(params_doc):
        raise CheckpointShapeError("layers and params lists differ in length")
    layers = [_layer_from_json(d) for d in layers_doc]
    weights, thresholds = [], []
    for spec, pdoc in zip(layers, params_doc):
        if isinstance(spec, Dense):
            if pdoc is None:
                raise CheckpointShapeError("dense layer without parameters")
            weights.append(_param_array(pdoc, "weight", (spec.in_dim, spec.out_dim)))
            thresholds.append(_param_array(pdoc, "threshold", (spec.out_dim,)))
        elif isinstance(spec, Conv):
            if pdoc is None:
                raise CheckpointShapeError("conv layer without parameters")
            kshape = (spec.kernel_h, spec.kernel_w, spec.in_channels, spec.out_channels)
            weights.append(_param_array(pdoc, "weight", kshape))
            thresholds.append(_param_array(pdoc, "threshold", (spec.out_channels,)))
        else:
            if pdoc is not None:
                raise CheckpointShapeError(
                    f"{type(spec).__name__} must not carry parameters"
                )
            weights.append(None)
            thresholds.append(None)
    try:
        return Network(layers, weights, thresholds, bool(doc.get("train_thresholds", False)))
    except ValueError as exc:
        raise CheckpointShapeError(str(exc)) from exc
