"""Complex-valued networks: construction, forward pass, backprop, SGD, checkpoints.

Layers are immutable specs; a :class:`Network` owns the complex weights.
Each spec's ``weight_shape()`` (or None for a layer without a weight) and
``output_shape(shape)`` are the one statement of layer geometry: shape
inference, construction, parameter validation, checkpoint loading and the
config's architecture builder all read them.
Backprop runs as real backprop on (re, im) pairs: loss gradients with respect
to a complex quantity q = a + bi are carried as the complex number
dL/da + i dL/db, so complex arrays serve as gradient containers and the
activation 2x2 Jacobians plug in uniformly (none of the supported
activations is holomorphic).  The gradient with respect to the network
input is never used, so backprop stops at layer 0's weight gradient.

A uint8 batch holds image pixel levels (as :func:`cvnnlab.datasets.load_idx`
returns them), which the network reads as the float64 pixels
``levels / 255.0``: :func:`forward` converts each block it walks and
:func:`backward` its step batch, so no float copy of a whole split is made.
A real batch (image pixels) stays real up to a dense or conv layer 0, whose
forward product and weight gradient then take real GEMMs on the weight's
(re, im) view (:func:`cvnnlab.clinalg.matmul_complex`); any other layer 0
receives the batch cast to complex.  Either way each layer's output has
the dtype it has for the complex cast of the batch.

Dense layers store W with shape (in_dim, out_dim) and compute x @ W on
row-major batches.  Conv layers run stride-1 valid cross-correlation with a
(kh, kw, cin, cout) kernel on (n, h, w, c) batches; their forward pass,
input gradient and kernel gradient all come from :mod:`cvnnlab.conv`, the
one operator that spectral analysis also measures.  Max pooling selects the
entry of largest modulus per window: the first in row-major order among
ties, and the first nan in a window with a nan modulus (as ``np.argmax``).
It caches the flat index of that entry into the layer input, and its
backward pass scatters through it.  The abs head maps a complex feature
vector to its entry moduli, the real class scores.

The head decides the loss: softmax cross-entropy of the abs head's scores
(the softmax belongs to the loss), and the l2 distance on a complex output
otherwise.  One function (:func:`_loss`) states each loss once: it checks the
targets and gives both the per-sample losses, which evaluation reads, and
the gradient of their mean, where backprop starts.  The training loop keeps
the loss ceiling M.

Networks are threshold-free, as the bounds assume: a :class:`Network`
refuses a nonzero threshold, so its thresholds are zeros, made from the
weights, that no pass adds or differentiates and no checkpoint stores.

Threading runs on the :mod:`cvnnlab.lanes` pool: the calling thread plus
one worker per further core the process may run on.  This module is the
only one that cuts the sample axis into blocks and deals them; the
arithmetic it deals (:mod:`cvnnlab.conv`, :mod:`cvnnlab.activations`) is
single-threaded.  Both passes share one forward arithmetic per layer
(:func:`_layer_forward`) and one block size, ``_STEP_BLOCK`` (32 samples),
and deal them differently.  :func:`forward` cuts a batch into fixed blocks
of that size, walks each block on the next free lane without keeping
caches, and concatenates the outputs in order; evaluation hands it a whole
split at once.  :func:`backward` walks the whole batch layer by layer, and
inside a layer every per-sample stage runs as those fixed blocks dealt
across the lanes, each block writing only its own samples of the layer's
whole-batch arrays: im2col with the conv GEMM, the dense GEMM and the
activation; modulus pooling, whose flat index counts from the block's
first sample; then the activation backprop (:func:`act_backprop`), the pool
scatter, the dense input gradient and the conv adjoint (one GEMM per
block).  Each layer's weight gradient stays one whole-batch reduction, run
on a worker beside its input gradient.  Block boundaries do not depend on
the number of cores, so outputs and gradients are the same bytes on one
core and on many when OpenBLAS runs one thread: :mod:`cvnnlab.cli` sets
``OPENBLAS_NUM_THREADS=1``, and a library caller sets it before importing
numpy.  Each call of forward or backward, and each :func:`act_backprop`
inside backward, stays on the calling thread.  Tasks inherit the caller's
numpy error state (``np.errstate``), and a call made on a pool worker runs
its blocks inline, so calls never nest on the pool.

Inside :func:`kept_arrays`, which training opens around each epoch's steps,
backward takes its whole-batch arrays (caches and gradient buffers, 75.6 MB
at the desk protocol's batch of 128) from a store that this thread keeps
from one call to the next instead of mapping them afresh each step.
Outside it, and always in forward, the arrays are fresh.  Two rules keep
the store small.  A layer with a diagonal activation (split_tanh, crelu)
keeps one array: the activation writes over the pre-activation, as in
forward, and its backprop reads that output.  A max pool followed by a conv
layer writes its input gradient into that conv's im2col patches, whose one
reader is the conv's weight gradient: backward awaits that gradient before
the pool's turn, so the patches are dead by then.

A checkpoint (format 3) is compact JSON: readable layer records, and each
weight as one base64 string of its entries in C order as little-endian
complex128.  The writer streams it in pieces, each weight as base64 of
fixed slices of its bytes, so it never holds a copy of the file, and it
refuses a non-finite weight, as the loader does.  The loader refuses every
other format version.
"""

from __future__ import annotations

import base64
import contextlib
import json
import math
import threading
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import activations, conv, lanes
from .activations import Activation
from .clinalg import matmul_complex
from .textio import write_atomic

__all__ = [
    "Dense",
    "Conv",
    "MaxPoolModulus",
    "AbsHead",
    "Network",
    "build_network",
    "infer_shapes",
    "max_width",
    "forward",
    "backward",
    "kept_arrays",
    "per_sample_losses",
    "sgd_init",
    "sgd_step",
    "save_checkpoint",
    "load_checkpoint",
    "CheckpointError",
]

CHECKPOINT_VERSION = 3
_STEP_BLOCK = 32  # samples per task of every per-sample stage, whatever the number of cores


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

    def weight_shape(self):
        return (self.in_dim, self.out_dim)

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

    def weight_shape(self):
        return (self.kernel_h, self.kernel_w, self.in_channels, self.out_channels)

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

    def weight_shape(self):
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

    def weight_shape(self):
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
    Raises ValueError when consecutive layers do not compose.
    """
    shapes = [tuple(int(s) for s in input_shape)]
    for pos, spec in enumerate(layers):
        if not isinstance(spec, LayerSpec):
            raise TypeError(f"unknown layer spec {spec!r}")
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
        if any(isinstance(spec, AbsHead) for spec in self.layers[:-1]):
            raise ValueError("abs head must be the final layer")
        for spec, w, h in zip(self.layers, self.weights, self.thresholds):
            got = None if w is None else w.shape
            if got != spec.weight_shape():
                raise ValueError(f"{spec}: weight shape {got}, expected {spec.weight_shape()}")
            if (h is None) != (w is None):
                raise ValueError(f"{spec}: a threshold goes with each weight and only with one")
        if not all(w is None or np.all(np.isfinite(w)) for w in self.weights):
            raise ValueError("weights must be finite")
        if any(h is not None and np.any(h) for h in self.thresholds):  # also nan; -0.0 passes
            raise ValueError("thresholds must be zero: the bounds are for threshold-free networks")
        # every shape from the first dense layer on is fixed; conv prefixes
        # depend on the input shape and are checked when one is given
        first = next((i for i, s in enumerate(self.layers) if isinstance(s, Dense)), None)
        if first is not None:
            try:
                infer_shapes(self.layers[first:], (self.layers[first].in_dim,))
            except ValueError as exc:
                raise ValueError(f"{exc} (counting from layer {first})") from None


def _zero_thresholds(weights):
    """The thresholds a network with ``weights`` holds: zeros, one per output
    of each weighted layer, and None where there is no weight."""
    return [None if w is None else np.zeros(w.shape[-1], np.complex128) for w in weights]


def build_network(layers, seed=0) -> Network:
    """Fresh network with re/im weight parts ~ N(0, 1/(2 fan_in)), zero thresholds."""
    rng = np.random.default_rng(seed)
    weights = []
    for spec in layers:
        shape = spec.weight_shape()
        if shape is None:
            weights.append(None)
            continue
        std = math.sqrt(1.0 / (2.0 * math.prod(shape[:-1])))  # fan-in
        weights.append(std * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)))
    return Network(layers, weights, _zero_thresholds(weights))


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
    """``[fn(rows)]`` for each fixed slice of ``_STEP_BLOCK`` of ``n``
    samples, in order, dealt across the lanes."""
    return lanes.run_blocks(fn, [slice(s, s + _STEP_BLOCK) for s in range(0, n, _STEP_BLOCK)])


def act_backprop(act: Activation, saved, grad):
    """:func:`cvnnlab.activations.backprop` of the batch, written over
    ``grad`` in ``_STEP_BLOCK`` blocks across the lanes; ``saved`` is what
    that function reads (the output of a diagonal activation, else the
    pre-activation).  backward makes one call per activated layer, on the
    calling thread: the bench wraps this function, and its span stack is
    single-threaded."""
    _in_blocks(lambda rows: activations.backprop(act, saved[rows], grad[rows], grad[rows]), len(saved))
    return grad


def _pool_forward(x, window, out=None, idx=None):
    """Per window, the entry of largest modulus and its flat index into
    ``x``; written into ``out`` and ``idx`` when given."""
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
    return out, off


def _pool_backward(grad, flat_idx, dx):
    """Zero ``dx``, then land each output gradient on the input entry its
    window selected (``flat_idx`` counts over ``dx``).  ``dx`` is
    C-contiguous, so its reshape is a view: in the training step it is an
    axis-0 slice of a :func:`_step_array`."""
    dx[...] = 0.0
    dx.reshape(-1)[flat_idx] = grad
    return dx


def _pool_dx(pos, shape, caches):
    """The array that layer ``pos``, a max pool, writes its input gradient
    into in :func:`backward`: the front of the next layer's im2col patches
    when that layer is a conv whose patches hold as many entries (complex,
    as the pool's output is), else a :func:`_step_array` of its own.  Those
    patches are dead by then: :func:`backward` awaits the conv's weight
    gradient, their one reader, before the pool's turn."""
    size = math.prod(shape)
    patches = caches[pos + 1].get("patches") if pos + 1 < len(caches) else None
    if patches is not None and patches.size >= size:
        return patches.reshape(-1)[:size].reshape(shape)
    return _step_array(pos, "dx", shape, np.complex128)


def _layer_forward(pos, spec, w, x, cache):
    """Layer ``pos``'s output for the batch ``x``, each stage run in blocks
    across the lanes (:func:`_in_blocks`); a forward block, which already
    has a lane, is one block, run on this thread.  With the dict ``cache``
    (the training step) each array that ``new`` hands out comes from
    :func:`_step_array` and is kept in ``cache`` under the name it is stored
    by, beside the layer's input (``"input"``).  Without it the arrays are
    fresh.  The activation overwrites the pre-activation ``"pre"``, except
    in the training step for a kind whose backprop reads z (not
    ``act.diagonal``), where it writes an array of its own, ``"out"``.  So
    ``"pre"`` holds what :func:`act_backprop` reads."""
    n = x.shape[0]

    def new(name, shape, dtype):
        if cache is None:
            return np.empty(shape, dtype)
        cache[name] = _step_array(pos, name, shape, dtype)
        return cache[name]

    if isinstance(spec, (Dense, Conv)):
        act = spec.activation
        pre = new("pre", (n,) + spec.output_shape(x.shape[1:]), np.complex128)
        if isinstance(spec, Dense):
            x = x.reshape(n, -1)

            def product(rows):
                matmul_complex(x[rows], w, out=pre[rows])
        else:
            patches = new("patches", conv.patch_shape(x.shape, w.shape), x.dtype)

            def product(rows):
                conv.apply(x[rows], w, pre[rows], patches[rows])

        keep_z = act and not act.diagonal and cache is not None
        out = new("out", pre.shape, np.complex128) if keep_z else pre

        def block(rows):
            product(rows)
            if act:
                activations.apply(act, pre[rows], out[rows])

        _in_blocks(block, n)
    elif isinstance(spec, MaxPoolModulus):
        shape = (n,) + spec.output_shape(x.shape[1:])
        out, idx = new("out", shape, np.complex128), new("idx", shape, np.intp)
        _in_blocks(lambda rows: _pool_forward(x[rows], spec.window, out[rows], idx[rows]), n)
    else:  # AbsHead
        out = np.abs(x.reshape(n, -1), out=new("out", (n, spec.out_classes), np.float64))
    return out


def _forward_walk(net: Network, x, caches=None):
    """The network's output for ``x``, layer by layer.  With ``caches`` (the
    training step) each layer's arrays come from :func:`_step_array` and its
    cache is appended; without it (a forward block) they are fresh, and
    each layer's are freed once the next layer has run, so forward blocks
    in flight side by side stay small."""
    for pos, (spec, w) in enumerate(zip(net.layers, net.weights)):
        cache = None if caches is None else {"input": x}
        x = _layer_forward(pos, spec, w, x, cache)
        if cache is not None:
            caches.append(cache)
    return x


def forward(net: Network, batch):
    """Network output for a batch: the class scores (real entry moduli) after
    an abs head, a complex feature matrix otherwise.  The batch runs in
    blocks of ``_STEP_BLOCK`` samples across the lanes, each read as layer
    0's input (:func:`_layer0_input`) and walked through every layer."""
    batch = _checked_batch(net, batch)
    return np.concatenate(_in_blocks(
        lambda rows: _forward_walk(net, _layer0_input(net, batch[rows])), len(batch)))


def _checked_batch(net: Network, batch):
    """The batch as an array, its sample shape checked against the layers."""
    batch = np.asarray(batch)
    if batch.ndim not in (2, 4):
        raise ValueError(f"batch must be (n, d) or (n, h, w, c), got {batch.shape}")
    if batch.shape[0] == 0:
        raise ValueError("batch has no samples")
    infer_shapes(net.layers, batch.shape[1:])
    return batch


def _layer0_input(net: Network, x):
    """The samples ``x`` as layer 0 reads them.  uint8 pixel levels become
    float64 ``levels / 255.0``; then a complex array passes unchanged, and
    a real one is float64 when layer 0 is dense or conv, else complex."""
    if x.dtype == np.uint8:
        x = np.divide(x, 255.0, dtype=np.float64)
    if np.iscomplexobj(x):
        return x
    if net.layers and isinstance(net.layers[0], (Dense, Conv)):
        return x.astype(np.float64, copy=False)
    return x.astype(np.complex128)


# ---------------------------------------------------------------------------
# losses


def per_sample_losses(output, targets) -> np.ndarray:
    """The loss of each sample, by the head that made ``output``: the l2
    distance of a complex output row from its target, or the cross-entropy
    ``log(sum(exp(s - max s))) - (s[label] - max s)`` of the abs head's
    scores s, finite for finite scores.  :func:`backward` takes its output
    gradient from the same function (:func:`_loss`)."""
    return _loss(np.atleast_2d(output), targets)[0]


def _loss(out, targets):
    """(loss of each sample, gradient of their mean w.r.t. ``out``) for the
    2-D output ``out``: l2 for a complex output, softmax cross-entropy of an
    abs head's real scores otherwise.  Each kind of target is checked here."""
    n = out.shape[0]
    if np.iscomplexobj(out):  # l2: no abs head
        tgt = np.atleast_2d(np.asarray(targets, dtype=np.complex128))
        if out.shape != tgt.shape:
            raise ValueError(f"shape mismatch: output {out.shape} vs target {tgt.shape}")
        diff = out - tgt
        norms = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1, keepdims=True))
        grad = diff * np.where(norms > 0.0, 1.0 / (n * np.where(norms > 0, norms, 1.0)), 0.0)
        return norms[:, 0], grad
    labels = np.asarray(targets)
    if labels.ndim != 1 or labels.shape[0] != n or labels.dtype.kind not in "iu":
        raise ValueError("labels must be one integer per sample")
    if labels.min() < 0 or labels.max() >= out.shape[1]:
        raise ValueError("label out of range")
    rows = np.arange(n)
    top = out.max(axis=1, keepdims=True)
    e = np.exp(out - top)  # softmax cross-entropy of the abs head's scores
    total = e.sum(axis=1, keepdims=True)
    grad = e / total
    grad[rows, labels] -= 1.0
    grad /= n
    return np.log(total[:, 0]) - (out[rows, labels] - top[:, 0]), grad


# ---------------------------------------------------------------------------
# backward


def backward(net: Network, batch, targets):
    """Gradients of the batch-mean loss for every weight: cross-entropy
    after an abs head, l2 otherwise.  The output gradient comes from the
    function that gives :func:`per_sample_losses` (:func:`_loss`), and is
    pulled back through every layer, the abs head included, in one loop.

    Returns a list aligned with ``net.layers``: a complex ``dW`` for weighted
    layers (re/im parts pair the partials w.r.t. the re/im weight
    components), ``None`` elsewhere.  No gradient is formed with respect to
    the batch: the pass ends at layer 0's ``dW``.
    """
    batch = _layer0_input(net, _checked_batch(net, batch))
    caches: list = []
    out = _forward_walk(net, batch, caches)
    n = batch.shape[0]
    grads: list = [None] * len(net.layers)

    grad = _loss(out, targets)[1]
    for pos in range(len(net.layers) - 1, -1, -1):
        spec = net.layers[pos]
        cache = caches[pos]
        x = cache["input"]
        if isinstance(spec, (Dense, Conv)) and spec.activation is not None:
            grad = act_backprop(spec.activation, cache["pre"], grad)  # see _layer_forward
        if isinstance(spec, Dense):
            flat = x.reshape(n, -1)
            dw = lanes.submit(matmul_complex, flat.conj().T, grad)  # beside the input gradient
            if pos:
                w_herm = net.weights[pos].conj().T
                dx = _step_array(pos, "dx", flat.shape, np.complex128)
                _in_blocks(lambda rows: np.matmul(grad[rows], w_herm, out=dx[rows]), n)
                grad = dx.reshape(x.shape)
            grads[pos] = dw.result()
        elif isinstance(spec, Conv):
            kernel = net.weights[pos]
            dw = lanes.submit(conv.weight_grad, cache["patches"], grad)  # beside the adjoint
            if pos:
                dx = _step_array(pos, "dx", x.shape, np.complex128)
                _in_blocks(lambda rows: conv.adjoint(grad[rows], kernel, dx[rows]), n)
                grad = dx
            grads[pos] = dw.result().reshape(kernel.shape)
        elif isinstance(spec, MaxPoolModulus):
            if pos:
                dx = _pool_dx(pos, x.shape, caches)
                idx = cache["idx"]
                _in_blocks(lambda rows: _pool_backward(grad[rows], idx[rows], dx[rows]), n)
                grad = dx
        else:  # AbsHead: the modulus takes g to g z / |z|, and to 0 where z is 0
            mods = cache["out"]
            safe = np.where(mods > 0.0, mods, 1.0)
            grad = (np.where(mods > 0.0, grad / safe, 0.0) * x.reshape(n, -1)).reshape(x.shape)
    return grads


# ---------------------------------------------------------------------------
# SGD with momentum


def sgd_init(net: Network) -> list:
    """Zero velocities: one per layer, shaped as its weight, or None."""
    return [None if w is None else np.zeros_like(w) for w in net.weights]


def sgd_step(net: Network, grads, lr: float, momentum: float, velocities: list) -> None:
    """v <- momentum v + dW; W <- W - lr v, applied to re/im parts independently.

    Mutates the weights and velocities in place.
    """
    if not lr > 0:  # also nan
        raise ValueError("lr must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    for pos, g in enumerate(grads):
        if g is None:
            continue
        v = velocities[pos]
        v *= momentum
        v += g
        net.weights[pos] -= lr * v


# ---------------------------------------------------------------------------
# checkpoints


class CheckpointError(Exception):
    """A checkpoint file that does not read back as a network."""


def _activation_from_json(doc):
    if doc is None:
        return None
    try:
        kind, b = doc["kind"], doc.get("b", 0.0)
        if type(b) not in (int, float):  # a JSON number; bool is refused
            raise TypeError(f"b must be a number, got {b!r}")
        return Activation(kind, b=float(b))
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


_B64_SLICE = 3 << 16  # bytes of a weight per base64 piece; a multiple of 3, so pieces join unpadded


def _weight_pieces(w):
    """Base64 of the entries in C order as little-endian complex128, one
    piece per ``_B64_SLICE`` bytes; the pieces join into the one string."""
    raw = np.ascontiguousarray(w, dtype="<c16").reshape(-1).view(np.uint8)
    for start in range(0, raw.size, _B64_SLICE):
        yield base64.b64encode(raw[start : start + _B64_SLICE]).decode("ascii")


def save_checkpoint(net: Network, path) -> None:
    """Write the network as a self-describing JSON document.

    Layer records are plain JSON; each weight is one base64 string of its
    entries in C order as little-endian complex128 (``"<c16"``), so
    doubles round-trip bit for bit, signed zeros and subnormals included,
    and a layer without a weight has null.  The zero thresholds are not
    stored.  A non-finite weight, which the loader would refuse, raises
    ValueError before anything is written.  The file holds the bytes of
    one compact ``json.dumps`` of the document and a newline, streamed one
    base64 piece at a time, so no copy of it is held in memory; it is
    replaced atomically.
    """
    for pos, w in enumerate(net.weights):
        if w is not None and not np.isfinite(w).all():
            raise ValueError(f"layer {pos} weight: non-finite values")
    records = json.dumps([_layer_to_json(s) for s in net.layers], separators=(",", ":"), allow_nan=False)

    def pieces():
        yield f'{{"format_version":{CHECKPOINT_VERSION},"layers":{records},"params":['
        for pos, w in enumerate(net.weights):
            sep = "," if pos else ""
            if w is None:
                yield sep + "null"
            else:
                yield sep + '"'
                yield from _weight_pieces(w)
                yield '"'
        yield "]}\n"

    write_atomic(path, pieces())


def _weight_array(text, pos, shape):
    """Layer ``pos``'s weight from its base64 string ``text``."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise CheckpointError(f"bad weight payload of layer {pos}: {exc}") from exc
    expected = 16 * math.prod(shape)
    if len(raw) != expected:
        raise CheckpointError(f"layer {pos} weight: expected {expected} bytes, got {len(raw)}")
    arr = np.frombuffer(raw, dtype="<c16").astype(np.complex128)  # a writable native copy
    if not np.all(np.isfinite(arr)):
        raise CheckpointError(f"layer {pos} weight: non-finite values")
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
    weights = []
    for pos, (spec, pdoc) in enumerate(zip(layers, params_doc)):
        shape = spec.weight_shape()
        if (shape is None) != (pdoc is None):
            state = "lacks" if pdoc is None else "must not carry"
            raise CheckpointError(f"{type(spec).__name__} layer {pos} {state} a weight")
        weights.append(None if shape is None else _weight_array(pdoc, pos, shape))
    try:
        return Network(layers, weights, _zero_thresholds(weights))
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
