"""Complex-valued networks: construction, forward pass, backprop, SGD, checkpoints.

Layers are immutable specs; a :class:`Network` owns the complex parameters.
Each spec's ``param_shapes()`` (weight and threshold shapes, or None) and
``output_shape(shape)`` are the one statement of layer geometry: shape
inference, construction, parameter validation, checkpoint loading and the
config's architecture builder all read them.
Backprop runs as real backprop on (re, im) pairs: loss gradients with respect
to a complex quantity q = a + bi are carried as the complex number
dL/da + i dL/db, so complex arrays serve as gradient containers and the
activation 2x2 Jacobians plug in uniformly (none of the supported
activations is holomorphic).  The gradient with respect to the network
input is never used, so backprop stops at layer 0's parameter gradients.

A real batch (image pixels) stays real up to a dense or conv layer 0, whose
forward product and weight gradient then take real GEMMs on the weight's
(re, im) view (:func:`cvnnlab.clinalg.matmul_complex`); any other layer 0
receives the batch cast to complex.  Either way each layer's output has
the dtype it has for the complex cast of the batch.

Dense layers store W with shape (in_dim, out_dim) and compute x @ W + H on
row-major batches.  Conv layers run stride-1 valid cross-correlation with a
(kh, kw, cin, cout) kernel on (n, h, w, c) batches; their forward pass,
input gradient and kernel gradient all come from :mod:`cvnnlab.conv`, the
one operator that spectral analysis also measures.  Max pooling selects the
entry of largest modulus per window: the first in row-major order among
ties, and the first nan in a window with a nan modulus (as ``np.argmax``).
It caches the flat index of that entry into the layer input, and its
backward pass scatters through it.  The abs head maps a complex feature
vector to entry moduli followed by softmax.

Thresholds are added in the forward pass and differentiated in the backward
pass but never trained: they keep the values a network was built (zero) or
loaded with.  The bound machinery assumes threshold-free networks and warns.

Threading runs on the :mod:`cvnnlab.lanes` pool: the calling thread plus
one worker per further core the process may run on.  This module is the
only one that cuts the sample axis into blocks and deals them; the
arithmetic it deals (:mod:`cvnnlab.conv`, :mod:`cvnnlab.activations`) is
single-threaded.  Both passes share one forward arithmetic per layer
(:func:`_layer_forward`) and deal it differently.  :func:`forward` cuts a
batch into fixed blocks of ``_FORWARD_BLOCK`` (128) samples, walks each
block on the next free lane without keeping caches, and concatenates the
outputs in order; evaluation hands it a whole split at once.
:func:`backward` walks the whole batch layer by layer, and inside a layer
every per-sample stage runs as fixed blocks of ``_STEP_BLOCK`` (32) samples
dealt across the lanes, each block writing only its own samples of the
layer's whole-batch arrays: im2col with the conv GEMM, the dense GEMM, the
threshold add and the activation; modulus pooling, whose flat index counts
from the batch's first sample; then the activation backprop
(:func:`act_backprop`), the pool scatter, the dense input gradient and the
conv adjoint (one GEMM per block).  The parameter gradients stay single
whole-batch reductions: each layer's weight gradient runs on a worker
beside its input gradient, and the threshold sums run on the calling
thread.  Block boundaries do not depend on the number of cores, so
outputs and gradients are the same bytes on one core and on many.  Each
call of forward or backward, and each :func:`act_backprop` inside
backward, stays on the calling thread.  Tasks inherit the caller's numpy
error state (``np.errstate``), and a call made on a pool worker runs its
blocks inline, so calls never nest on the pool.

Inside :func:`kept_arrays`, which training opens around each epoch's steps,
backward takes its whole-batch arrays (caches and gradient buffers, ~90 MB
at the desk protocol's batch of 128) from a store that this thread keeps
from one call to the next instead of mapping them afresh each step.
Outside it, and always in forward, the arrays are fresh.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import threading
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import activations, conv, lanes
from .activations import Activation
from .clinalg import matmul_complex
from .textio import json_text, write_atomic

__all__ = [
    "Dense",
    "Conv",
    "MaxPoolModulus",
    "AbsHead",
    "Network",
    "LossKind",
    "build_network",
    "infer_shapes",
    "max_width",
    "forward",
    "backward",
    "kept_arrays",
    "compute_loss",
    "per_sample_losses",
    "SgdState",
    "sgd_init",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

CHECKPOINT_VERSION = 1
_STEP_BLOCK = 32  # samples per task of every per-sample stage, whatever the number of cores
_FORWARD_BLOCK = 128  # samples per forward task, whatever the number of cores


# ---------------------------------------------------------------------------
# layer specs


def _image_shape(kind, shape):
    if len(shape) != 3:
        raise ValueError(f"{kind} needs image input (h, w, c), got {tuple(shape)}")
    return shape


@dataclass(frozen=True)
class Dense:
    in_dim: int
    out_dim: int
    activation: Activation | None = None

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("dense dimensions must be positive")

    def param_shapes(self):
        return (self.in_dim, self.out_dim), (self.out_dim,)

    def output_shape(self, shape):
        flat = math.prod(shape)
        if flat != self.in_dim:
            raise ValueError(f"dense expects {self.in_dim} inputs, got {flat}")
        return (self.out_dim,)


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

    def param_shapes(self):
        kshape = (self.kernel_h, self.kernel_w, self.in_channels, self.out_channels)
        return kshape, (self.out_channels,)

    def output_shape(self, shape):
        h, w, c = _image_shape("conv", shape)
        if c != self.in_channels:
            raise ValueError(f"conv expects {self.in_channels} channels, got {c}")
        oh, ow = h - self.kernel_h + 1, w - self.kernel_w + 1
        if oh < 1 or ow < 1:
            raise ValueError(f"kernel larger than input {tuple(shape)}")
        return (oh, ow, self.out_channels)


@dataclass(frozen=True)
class MaxPoolModulus:
    window: int = 2

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("pool window must be positive")

    def param_shapes(self):
        return None

    def output_shape(self, shape):
        h, w, c = _image_shape("pool", shape)
        oh, ow = h // self.window, w // self.window
        if oh < 1 or ow < 1:
            raise ValueError(f"pool window {self.window} exceeds input {tuple(shape)}")
        return (oh, ow, c)


@dataclass(frozen=True)
class AbsHead:
    out_classes: int

    def __post_init__(self):
        if self.out_classes < 1:
            raise ValueError("out_classes must be positive")

    def param_shapes(self):
        return None

    def output_shape(self, shape):
        flat = math.prod(shape)
        if flat != self.out_classes:
            raise ValueError(f"abs head expects {self.out_classes} features, got {flat}")
        return (self.out_classes,)


LayerSpec = Dense | Conv | MaxPoolModulus | AbsHead


def infer_shapes(layers, input_shape):
    """Feature shape after each layer, starting from ``input_shape``.

    ``input_shape`` is (d,) for dense inputs or (h, w, c) for images.
    Raises ValueError when consecutive layers do not compose or when an
    AbsHead appears anywhere but last.
    """
    shapes = [tuple(int(s) for s in input_shape)]
    for pos, spec in enumerate(layers):
        if not isinstance(spec, LayerSpec):
            raise TypeError(f"unknown layer spec {spec!r}")
        if isinstance(spec, AbsHead) and pos != len(layers) - 1:
            raise ValueError("abs head must be the final layer")
        try:
            shapes.append(spec.output_shape(shapes[-1]))
        except ValueError as exc:
            raise ValueError(f"layer {pos}: {exc}") from None
    return shapes


class Network:
    """Layer specs plus their complex parameters."""

    def __init__(self, layers, weights, thresholds):
        self.layers = tuple(layers)
        self.weights = list(weights)
        self.thresholds = list(thresholds)
        if len(self.weights) != len(self.layers) or len(self.thresholds) != len(self.layers):
            raise ValueError("parameter lists must align with layers")
        for spec, w, h in zip(self.layers, self.weights, self.thresholds):
            got = tuple(None if a is None else a.shape for a in (w, h))
            expected = spec.param_shapes() or (None, None)
            if got != expected:
                raise ValueError(f"{spec}: parameter shapes {got}, expected {expected}")
        for arr in self.weights + self.thresholds:
            if arr is not None and not np.all(np.isfinite(arr)):
                raise ValueError("parameters must be finite")
        # every shape from the first dense layer on is fixed; conv prefixes
        # depend on the input shape and are checked when one is given
        first = next((i for i, s in enumerate(self.layers) if isinstance(s, Dense)), None)
        if first is not None:
            try:
                infer_shapes(self.layers[first:], (self.layers[first].in_dim,))
            except ValueError as exc:
                raise ValueError(f"{exc} (counting from layer {first})") from None


def build_network(layers, seed=0) -> Network:
    """Fresh network with re/im weight parts ~ N(0, 1/(2 fan_in)), zero thresholds."""
    rng = np.random.default_rng(seed)
    weights, thresholds = [], []
    for spec in layers:
        shapes = spec.param_shapes()
        if shapes is None:
            weights.append(None)
            thresholds.append(None)
            continue
        wshape, hshape = shapes
        std = math.sqrt(1.0 / (2.0 * math.prod(wshape[:-1])))  # fan-in
        weights.append(std * (rng.standard_normal(wshape) + 1j * rng.standard_normal(wshape)))
        thresholds.append(np.zeros(hshape, dtype=np.complex128))
    return Network(layers, weights, thresholds)


def max_width(net: Network, input_shape) -> int:
    """Largest flattened feature dimension at any layer boundary."""
    shapes = infer_shapes(net.layers, input_shape)
    return max(math.prod(s) for s in shapes)


# ---------------------------------------------------------------------------
# forward / backward


_kept = threading.local()  # .store: the open kept_arrays() store of this thread


@contextlib.contextmanager
def kept_arrays():
    """A scope in which :func:`backward` keeps its whole-batch arrays on this
    thread from one call to the next.

    Inside it each backward on this thread takes its caches and gradient
    buffers from one store, so a loop of training steps maps them once, not
    once per step; a smaller batch uses the front of each array.  The store
    is dropped when the scope exits, also on an error.  Returned gradients
    are fresh arrays that never alias it, and :func:`forward` never uses it.
    """
    saved = getattr(_kept, "store", None)
    _kept.store = {}
    try:
        yield
    finally:
        _kept.store = saved


def _step_array(pos, name, shape, dtype):
    """Uninitialised array ``name`` of layer ``pos`` in the training step: the
    front of the kept one when a store is open on this thread, else fresh."""
    store = getattr(_kept, "store", None)
    if store is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = store.get((pos, name))
    if buf is None or buf.dtype != dtype or buf.size < size:
        buf = store[pos, name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _in_blocks(fn, n):
    """``fn(rows)`` for each fixed slice of ``_STEP_BLOCK`` of ``n`` samples,
    dealt across the lanes."""
    lanes.run_blocks(fn, [slice(s, s + _STEP_BLOCK) for s in range(0, n, _STEP_BLOCK)])


def _at_once(fn, n):
    """``fn(rows)`` for all ``n`` samples in one slice, on this thread."""
    fn(slice(0, n))


def act_backprop(act: Activation, z, grad, out):
    """:func:`cvnnlab.activations.backprop` of the batch, written into
    ``out`` (which may be ``grad``) in ``_STEP_BLOCK`` blocks across the
    lanes.  backward makes one call per activated layer, on the calling
    thread: the bench wraps this function, and its span stack is
    single-threaded."""
    _in_blocks(lambda rows: activations.backprop(act, z[rows], grad[rows], out[rows]), len(z))
    return out


def _pool_forward(x, window, out=None, idx=None, first=0):
    """Per window, the entry of largest modulus and its flat index into the
    layer input, of which ``x`` holds the samples from ``first`` on; written
    into ``out`` and ``idx`` when given."""
    n, h, w, c = x.shape
    oh, ow = h // window, w // window
    # (offset from the window origin, strided view) for each of the w*w taps
    taps = [((dy * w + dx) * c, x[:, dy : oh * window : window, dx : ow * window : window])
            for dy in range(window) for dx in range(window)]
    best = np.abs(taps[0][1])
    off = np.empty(best.shape, dtype=np.intp) if idx is None else idx
    off[...] = 0
    for shift, view in taps[1:]:
        mods = np.abs(view)
        # strict: the first maximum wins.  Shifts grow tap by tap, so where
        # the test holds, shift exceeds every earlier one held in off
        np.maximum(off, (mods > best) * shift, out=off)
        np.maximum(best, mods, out=best)  # propagates nan
    if np.isnan(best).any():  # a window with a nan modulus takes its first nan
        for shift, view in taps[::-1]:
            off[np.isnan(np.abs(view))] = shift
    off += (np.arange(n)[:, None, None, None] * (h * w * c)  # plus each window's origin
            + np.arange(oh)[:, None, None] * (window * w * c)
            + np.arange(ow)[:, None] * (window * c) + np.arange(c))
    out = np.take(x.reshape(-1), off, out=out, mode="clip")  # every index is in range
    off += first * (h * w * c)
    return out, off


def _pool_backward(grad, flat_idx, dx, rows=slice(None)):
    """Zero samples ``rows`` of ``dx``, then land each output gradient on the
    input entry its window selected (``flat_idx`` counts over all of ``dx``)."""
    dx[rows] = 0.0
    dx.reshape(-1)[flat_idx] = grad
    return dx


def _softmax(scores):
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _layer_forward(pos, spec, w, h, x, cache):
    """Layer ``pos``'s output for the batch ``x``.  With the dict ``cache``
    (the training step) its arrays come from :func:`_step_array`, each stage
    runs in blocks across the lanes (:func:`_in_blocks`), what the backward
    pass reads goes into ``cache``, and the activation writes an array of
    its own.  Without it (a forward block, which already has a lane) the
    arrays are fresh, each stage runs once on all of ``x`` on this thread,
    and the activation overwrites the pre-activation."""
    n = x.shape[0]
    run = _at_once if cache is None else _in_blocks

    def new(name, shape, dtype):
        return np.empty(shape, dtype) if cache is None else _step_array(pos, name, shape, dtype)

    if isinstance(spec, (Dense, Conv)):
        act = spec.activation
        pre = new("pre", (n,) + spec.output_shape(x.shape[1:]), np.complex128)
        if isinstance(spec, Dense):
            x = x.reshape(n, -1)
            saved = {"x": x}

            def product(rows):
                matmul_complex(x[rows], w, out=pre[rows])
        else:
            patches = new("patches", conv.patch_shape(x.shape, w.shape), x.dtype)
            saved = {"patches": patches}

            def product(rows):
                conv.apply(x[rows], w, pre[rows], patches[rows])

        out = new("out", pre.shape, np.complex128) if act and cache is not None else pre

        def block(rows):
            product(rows)
            pre[rows] += h
            if act:
                activations.apply(act, pre[rows], out[rows])

        run(block, n)
        saved["pre"] = pre
    elif isinstance(spec, MaxPoolModulus):
        shape = (n,) + spec.output_shape(x.shape[1:])
        out, idx = new("out", shape, np.complex128), new("idx", shape, np.intp)
        run(lambda rows: _pool_forward(x[rows], spec.window, out[rows], idx[rows], rows.start), n)
        saved = {"flat_idx": idx}
    elif isinstance(spec, AbsHead):
        flat = x.reshape(n, -1)
        out = _softmax(np.abs(flat))
        saved = {"x": flat}
    else:  # pragma: no cover
        raise TypeError(spec)
    if cache is not None:
        cache.update(saved)
    return out


def _forward_walk(net: Network, x, caches=None):
    """The network's output for ``x``, layer by layer.  With ``caches`` (the
    training step) each layer's arrays come from :func:`_step_array` and its
    cache is appended; without it (a forward block) they are fresh, and
    each layer's are freed once the next layer has run, so forward blocks
    in flight side by side stay small."""
    for pos, (spec, w, h) in enumerate(zip(net.layers, net.weights, net.thresholds)):
        cache = None if caches is None else {"input_shape": x.shape}
        x = _layer_forward(pos, spec, w, h, x, cache)
        if cache is not None:
            caches.append(cache)
    return x


def forward(net: Network, batch):
    """Network output for a batch; real softmax probabilities after an abs head,
    a complex feature matrix otherwise.  Batches above ``_FORWARD_BLOCK``
    samples run in blocks of that size across the lanes."""
    batch = _checked_batch(net, batch)
    if batch.shape[0] <= _FORWARD_BLOCK:
        return _forward_walk(net, batch)
    blocks = [batch[s : s + _FORWARD_BLOCK] for s in range(0, batch.shape[0], _FORWARD_BLOCK)]
    return np.concatenate(lanes.run_blocks(functools.partial(_forward_walk, net), blocks))


def _checked_batch(net: Network, batch):
    """The batch, its sample shape checked against the layers: complex, or
    float64 when it is real and layer 0 is dense or conv."""
    batch = np.asarray(batch)
    if batch.ndim not in (2, 4):
        raise ValueError(f"batch must be (n, d) or (n, h, w, c), got {batch.shape}")
    infer_shapes(net.layers, batch.shape[1:])
    if np.iscomplexobj(batch):
        return batch
    if net.layers and isinstance(net.layers[0], (Dense, Conv)):
        return batch.astype(np.float64, copy=False)
    return batch.astype(np.complex128)


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
        out, tgt = _checked_l2_target(output, target)
        return np.sqrt(np.sum(np.abs(out - tgt) ** 2, axis=1))
    # cross entropy on abs-head softmax probabilities
    if np.iscomplexobj(output):
        raise ValueError("cross-entropy loss needs abs-head class probabilities")
    probs = np.atleast_2d(output)
    labels = _checked_labels(target, probs)
    return -np.log(probs[np.arange(probs.shape[0]), labels])


def _checked_l2_target(output, target):
    if not np.iscomplexobj(output):
        raise ValueError("l2 loss needs complex network output (no abs head)")
    out = np.atleast_2d(output)
    tgt = np.atleast_2d(np.asarray(target, dtype=np.complex128))
    if out.shape != tgt.shape:
        raise ValueError(f"shape mismatch: output {out.shape} vs target {tgt.shape}")
    return out, tgt


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
    parameter components), ``None`` elsewhere.  No gradient is formed with
    respect to the batch: the pass ends at layer 0's ``(dW, dH)``.
    """
    batch = _checked_batch(net, batch)
    caches: list = []
    out = _forward_walk(net, batch, caches)
    n = batch.shape[0]
    grads: list = [None] * len(net.layers)

    # gradient at the network output
    if loss.kind == "l2":
        out, tgt = _checked_l2_target(out, targets)
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
        if isinstance(spec, (Dense, Conv)) and spec.activation is not None:
            grad = act_backprop(spec.activation, cache["pre"], grad, grad)  # in place
        if isinstance(spec, Dense):
            x = cache["x"]
            dw = lanes.submit(matmul_complex, x.conj().T, grad)  # beside the input gradient
            dh = grad.sum(axis=0)
            if pos:
                w_herm = net.weights[pos].conj().T
                dx = _step_array(pos, "dx", x.shape, np.complex128)
                _in_blocks(lambda rows: np.matmul(grad[rows], w_herm, out=dx[rows]), n)
                grad = dx.reshape(cache["input_shape"])
            grads[pos] = (dw.result(), dh)
        elif isinstance(spec, Conv):
            kernel = net.weights[pos]
            dw = lanes.submit(conv.weight_grad, cache["patches"], grad)  # beside the adjoint
            db = grad.sum(axis=(0, 1, 2))
            if pos:
                dx = _step_array(pos, "dx", cache["input_shape"], np.complex128)
                _in_blocks(lambda r: conv.adjoint(grad[r], kernel, dx[r].shape, dx[r]), n)
                grad = dx
            grads[pos] = (dw.result().reshape(kernel.shape), db)
        elif isinstance(spec, MaxPoolModulus):
            if pos:
                dx = _step_array(pos, "dx", cache["input_shape"], np.complex128)
                idx = cache["flat_idx"]
                _in_blocks(lambda rows: _pool_backward(grad[rows], idx[rows], dx, rows), n)
                grad = dx
        else:  # pragma: no cover - AbsHead handled at the top
            raise TypeError(spec)
    return grads


# ---------------------------------------------------------------------------
# SGD with momentum


@dataclass
class SgdState:
    velocities: list = field(default_factory=list)  # per layer: the weight's, or None


def sgd_init(net: Network) -> SgdState:
    return SgdState(velocities=[None if w is None else np.zeros_like(w) for w in net.weights])


def sgd_step(net: Network, grads, lr: float, momentum: float, state: SgdState) -> None:
    """v <- momentum v + dW; W <- W - lr v, applied to re/im parts independently.

    Mutates the weights and state in place; thresholds never move.
    """
    if not lr > 0:  # also nan
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    for pos, g in enumerate(grads):
        if g is None:
            continue
        v = state.velocities[pos]
        v *= momentum
        v += g[0]
        net.weights[pos] -= lr * v


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(Exception):
    """A checkpoint file that does not read back as a network."""


def _activation_from_json(doc):
    if doc is None:
        return None
    try:
        return Activation(doc["kind"], b=float(doc.get("b", 0.0)))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"bad activation record: {exc}") from exc


_LAYER_TYPES = {"dense": Dense, "conv": Conv, "maxpool": MaxPoolModulus, "abshead": AbsHead}


def _layer_to_json(spec: LayerSpec):
    """The spec's fields under its type name; an activation becomes {kind, b}."""
    kind = next(name for name, cls in _LAYER_TYPES.items() if isinstance(spec, cls))
    return {"type": kind, **asdict(spec)}


def _layer_from_json(doc):
    try:
        cls = _LAYER_TYPES.get(doc["type"])
        if cls is None:
            raise CheckpointError(f"unknown layer type {doc['type']!r}")
        args = {f.name: doc[f.name] for f in fields(cls) if f.name != "activation"}
        if not all(type(v) is int for v in args.values()):
            raise CheckpointError(f"{doc['type']} dimensions must be integers")
        if cls in (Dense, Conv):
            args["activation"] = _activation_from_json(doc.get("activation"))
        return cls(**args)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad layer record: {exc}") from exc


def _param_lists(key, arr):
    return {key + "_re": arr.real.ravel().tolist(), key + "_im": arr.imag.ravel().tolist()}


def save_checkpoint(net: Network, path) -> None:
    """Write the network as a self-describing JSON document.

    Floats carry 17 significant digits, which round-trips doubles exactly;
    the file is replaced atomically.
    """
    params = [
        None if w is None else {**_param_lists("weight", w), **_param_lists("threshold", h)}
        for w, h in zip(net.weights, net.thresholds)
    ]
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "layers": [_layer_to_json(s) for s in net.layers],
        "params": params,
    }
    write_atomic(path, json_text(doc) + "\n")


def _param_array(doc, key, shape):
    try:
        re = np.asarray(doc[key + "_re"], dtype=float)
        im = np.asarray(doc[key + "_im"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"bad parameter arrays for {key}: {exc}") from exc
    expected = math.prod(shape)
    if re.size != expected or im.size != expected:
        raise CheckpointError(f"{key}: expected {expected} values, got {re.size}/{im.size}")
    arr = re.ravel().astype(np.complex128)  # re + 1j * im would turn -0.0 into 0.0
    arr.imag = im.ravel()
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"{key}: non-finite values")
    return arr.reshape(shape)


def load_checkpoint(path) -> Network:
    try:
        with open(path, "r", encoding="ascii") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # also undecodable bytes and over-long integers
        raise CheckpointError(f"cannot parse checkpoint: {exc}") from exc
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint: {exc}") from exc
    if not isinstance(doc, dict):
        raise CheckpointError("checkpoint root must be an object")
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported format_version {version!r}")
    layers_doc = doc.get("layers")
    params_doc = doc.get("params")
    if not isinstance(layers_doc, list) or not isinstance(params_doc, list):
        raise CheckpointError("missing layers/params lists")
    if len(layers_doc) != len(params_doc):
        raise CheckpointError("layers and params lists differ in length")
    layers = [_layer_from_json(d) for d in layers_doc]
    weights, thresholds = [], []
    for spec, pdoc in zip(layers, params_doc):
        shapes = spec.param_shapes()
        if (shapes is None) != (pdoc is None):
            state = "lacks" if pdoc is None else "must not carry"
            raise CheckpointError(f"{type(spec).__name__} layer {state} parameters")
        weights.append(None if shapes is None else _param_array(pdoc, "weight", shapes[0]))
        thresholds.append(None if shapes is None else _param_array(pdoc, "threshold", shapes[1]))
    try:
        return Network(layers, weights, thresholds)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
