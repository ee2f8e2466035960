"""Per-layer norm extraction, spectral complexity, and closed-form bound evaluators.

The spectral complexity of a network with weighted layers (A_1 .. A_L),
spectral norms s_i = ||A_i||_sigma and (2,1) norms b_i = ||A_i^T||_{2,1} is

    R_A = (prod_i s_i) * (sum_i (b_i / s_i)^(2/3))^(3/2).

Every activation is 1-Lipschitz (:mod:`cvnnlab.activations` refuses
modrelu with b > 0), so no Lipschitz factor enters the product.

Dense layers contribute their weight matrix directly (stored in the
(d_{i-1}, d_i) orientation).  Convolutional layers act through the linear
map they induce on a fixed input shape: the spectral norm comes from
Lanczos through the operator of :mod:`cvnnlab.conv` that training runs
(its apply and adjoint on a batch of one), and the (2,1) norm from that
module's explicit dense lowering of the map.  The lowering is built and
read in row blocks of about 2^16 entries
(:func:`cvnnlab.clinalg.pq_norm_in_row_blocks`), so no whole lowering is
held, and b has the bytes of the whole lowering's norm.  When a lowering
has more entries than the budget of :func:`cvnnlab.conv.layer_matrix`,
its layer has no b, the report has no R_A (sn-product-only mode) and
R_A-based bounds refuse to run; that budget is the mode's one cause.
Modulus max-pooling and the abs head are 1-Lipschitz and contribute
neither s_i nor b_i.  A report stores the layer records and one flag;
sn_product and R_A derive from them.

Bound evaluators cover the i.i.d. and sequential generalization bounds, the
empirical Rademacher complexity ceiling behind the i.i.d. bound, and the
PAC sample-size threshold.  The covering-number bound of one linear map,
which those bounds rest on, lives with its executable check in
:mod:`cvnnlab.covering`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import conv
from .clinalg import (
    DEFAULT_MAX_ITER,
    LanczosResult,
    gram_lanczos,
    pq_norm,
    pq_norm_in_row_blocks,
    spectral_norm_power,
)
from .conv import LoweringBudgetError, layer_matrix, patch_shape
from .network import Conv, Dense, Network, infer_shapes
from .textio import kv_text, read_kv

__all__ = [
    "LayerNorms",
    "SpectralReport",
    "BoundInputs",
    "conv_spectral_norm",
    "analyze",
    "bound_iid",
    "bound_sequential",
    "rademacher_bound",
    "pac_sample_size",
    "report_to_text",
    "report_from_text",
]

# ---------------------------------------------------------------------------
# convolution spectral norm


def conv_spectral_norm(
    kernel, input_shape, max_iter: int = DEFAULT_MAX_ITER, seed: int = 0
) -> LanczosResult:
    """Largest singular value of the induced linear map, matrix-free.

    Lanczos (:func:`cvnnlab.clinalg.gram_lanczos`, as on the dense path)
    runs the training operator (:func:`cvnnlab.conv.apply` and
    :func:`cvnnlab.conv.adjoint`) on a batch of one.
    """
    kernel = np.asarray(kernel, dtype=np.complex128)
    if not np.any(kernel):
        return LanczosResult(0.0, 0, True)
    return gram_lanczos(
        lambda v: conv.adjoint(conv.apply(v, kernel)[0], kernel),
        (1,) + tuple(input_shape), max_iter, seed,
    )


# ---------------------------------------------------------------------------
# network analysis


@dataclass(frozen=True)
class LayerNorms:
    position: int
    kind: str  # "dense" | "conv"
    s: float
    b: float | None  # None only for a conv lowering over budget

    def __post_init__(self):
        # written as "not x >= 0" so that nan fails too
        has_b = self.b >= 0 if self.b is not None else self.kind == "conv"
        if self.kind not in ("dense", "conv") or not (self.position >= 0 and self.s >= 0 and has_b):
            raise ValueError(f"a layer needs kind dense or conv, position, s, b >= 0 (a conv may lack b): {self}")


@dataclass(frozen=True)
class SpectralReport:
    """Layer records and one flag; the aggregates derive from the records."""

    layers: tuple
    power_iteration_converged: bool  # every layer's solve; the name predates Lanczos

    @property
    def _zero_map(self) -> bool:
        # a zero map makes the network constant, whatever s = inf elsewhere
        return any(rec.s == 0.0 for rec in self.layers)

    @property
    def sn_product(self) -> float:
        return 0.0 if self._zero_map else math.prod(rec.s for rec in self.layers)

    @property
    def r_a(self) -> float | None:
        """None (sn-product-only) when a layer has no b."""
        if any(rec.b is None for rec in self.layers):
            return None
        if self._zero_map:
            return 0.0
        if any(math.isinf(rec.s) for rec in self.layers):
            return math.inf  # b / s would read 0 (or nan) and hide the overflow
        ratio_sum = sum((rec.b / rec.s) ** (2.0 / 3.0) for rec in self.layers)
        try:
            return self.sn_product * ratio_sum**1.5
        except OverflowError:  # a hand-made record with b / s beyond any layer width
            return math.inf


_LOWERING_BLOCK = 1 << 16  # lowering entries analyze builds at a time


def _lowering_21_norm(kernel, input_shape) -> float:
    """(2,1) norm of the lowering of a conv layer, built in blocks of whole
    output positions.  The weight-matrix orientation (inputs x outputs) is
    the transpose of the column-action lowering, so ||A^T||_{2,1} is the
    (2,1) norm of the lowering itself.  A lowering over budget raises
    LoweringBudgetError at its first block."""
    if math.prod(input_shape) == 1:  # one column, which pq_norm sums pairwise
        return pq_norm(layer_matrix(kernel, input_shape), 2, 1)
    _, n_pos, _ = patch_shape((1, *input_shape), kernel.shape)
    step = max(1, _LOWERING_BLOCK // (kernel.shape[-1] * math.prod(input_shape)))

    def blocks():
        for first in range(0, n_pos, step):
            yield layer_matrix(kernel, input_shape, positions=(first, min(first + step, n_pos)))

    return pq_norm_in_row_blocks(blocks, 2, 1)


def analyze(net: Network, input_shape) -> SpectralReport:
    """Per-layer spectral data and the aggregate complexity of a network.

    ``input_shape`` fixes the linear map induced by each conv layer.
    """
    shapes = infer_shapes(net.layers, input_shape)
    records = []
    converged = True
    for pos, spec in enumerate(net.layers):
        if spec.weight_shape() is None:
            continue  # 1-Lipschitz, no weight: contributes nothing to R_A
        if isinstance(spec, Dense):
            a = net.weights[pos]
            res = spectral_norm_power(a)
            b = pq_norm(a.T, 2, 1)
        elif isinstance(spec, Conv):
            kernel = net.weights[pos]
            res = conv_spectral_norm(kernel, shapes[pos])
            try:
                # built and read in row blocks: no whole lowering is held
                b = _lowering_21_norm(kernel, shapes[pos])
            except LoweringBudgetError:
                b = None  # sn-product-only
        converged = converged and res.converged
        kind = "dense" if isinstance(spec, Dense) else "conv"
        records.append(LayerNorms(position=pos, kind=kind, s=res.value, b=b))
    if not records:
        raise ValueError("network has no weighted layers")
    return SpectralReport(tuple(records), power_iteration_converged=converged)


# ---------------------------------------------------------------------------
# closed-form bounds


@dataclass(frozen=True)
class BoundInputs:
    m: float  # loss ceiling
    n: int  # sample count
    w: int  # max layer width
    z_norm: float  # Frobenius norm of the data matrix
    r_a: float  # spectral complexity
    delta: float  # confidence parameter

    def __post_init__(self):
        # written as "not x > 0" so that nan fails too
        if not (self.m > 0 and self.n > 0 and self.w > 0 and self.z_norm > 0):
            raise ValueError("m, n, w, z_norm must be positive")
        if not self.r_a >= 0:
            raise ValueError("r_a must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def bound_iid(inp: BoundInputs) -> float:
    """Generalization gap bound for i.i.d. samples (confidence 1 - delta):
    2 * rademacher_bound + 3 M sqrt(ln(2/delta)/(2n))."""
    rademacher = rademacher_bound(inp.m, inp.n, inp.w, inp.z_norm, inp.r_a)
    return 2.0 * rademacher + 3.0 * inp.m * math.sqrt(math.log(2.0 / inp.delta) / (2.0 * inp.n))


def bound_sequential(inp: BoundInputs) -> float:
    """Generalization gap bound for adapted (sequential) samples."""
    n = float(inp.n)
    return (
        8.0 * inp.m / n
        + 24.0 * inp.z_norm * math.sqrt(2.0 * math.log(2.0 * inp.w)) * math.log(n) * inp.r_a / n
        + inp.m * math.sqrt(math.log(2.0 / inp.delta) / (2.0 * n))
    )


def rademacher_bound(m: float, n: int, w: int, z_norm: float, r_a: float) -> float:
    """Empirical Rademacher complexity ceiling behind the i.i.d. bound."""
    if not (m > 0 and n > 0 and w > 0 and z_norm > 0 and r_a >= 0):
        raise ValueError("inputs must be positive (r_a nonnegative)")
    nf = float(n)
    return (
        4.0 * m / nf**1.5
        + 18.0 * z_norm * math.sqrt(2.0 * math.log(2.0 * w)) * math.log(nf) * r_a / nf
    )


def pac_sample_size(
    eps: float, delta: float, m: float, z_norm: float, w: int, r_a: float
) -> int:
    """Smallest sample count guaranteeing eps-optimal empirical minimization
    with probability 1 - delta."""
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    if not (m > 0 and z_norm > 0 and w >= 1 and r_a >= 0):
        raise ValueError("m, z_norm, w must be positive; r_a nonnegative")
    inner = (
        8.0 * m
        + 36.0 * z_norm * math.sqrt(2.0 * math.log(2.0 * w)) * r_a
        + 3.0 * m * math.sqrt(math.log(2.0 / delta) / 2.0)
    )
    try:
        return int(math.ceil(8.0 / eps**3 * inner**3))
    except OverflowError:  # an infinite r_a, or a count past the float range
        raise ValueError("no finite sample size: r_a or m is too large") from None


# ---------------------------------------------------------------------------
# flat key-value serialization

REPORT_FORMAT = "spectral-report-v4"

_AGGREGATES = ("sn_product", "r_a")


def report_to_text(report: SpectralReport) -> str:
    """Format ``spectral-report-v4``: the flag, each layer's fields under
    ``layer.<i>.`` and the aggregates; a None ``b`` or ``r_a`` is left out."""
    pairs = [("format", REPORT_FORMAT), ("layer_count", len(report.layers)),
             ("power_iteration_converged", report.power_iteration_converged)]
    for i, rec in enumerate(report.layers):
        pairs += [(f"layer.{i}.{name}", value) for name, value in asdict(rec).items()]
    pairs += [(name, getattr(report, name)) for name in _AGGREGATES]
    return kv_text(pairs)


def report_from_text(text: str) -> SpectralReport:
    """Inverse of :func:`report_to_text`.  A missing key, a flag other than
    ``true`` or ``false``, a report with no layers, an invalid layer record,
    or an aggregate line other than the writer prints for the layers raises
    ValueError.

    Earlier formats are refused: a v1 text may carry a probed rho, a v2
    text may describe a network with nonzero thresholds, and a v3 text may
    describe modrelu with b > 0 (rho = inf)."""
    kv = {key: value for _, key, value in read_kv(text)}
    if kv.get("format") != REPORT_FORMAT:
        raise ValueError(f"unsupported report format {kv.get('format')!r}")

    def get(key, convert=float):
        if key not in kv:
            raise ValueError(f"report lacks {key!r}")
        return convert(kv[key])

    def flag(key):
        value = get(key, str)
        if value not in ("true", "false"):
            raise ValueError(f"{key} must be true or false, got {value!r}")
        return value == "true"

    layer_count = get("layer_count", int)
    if layer_count < 1:
        raise ValueError(f"layer_count must be at least 1, got {layer_count}")

    layers = tuple(
        LayerNorms(
            position=get(f"layer.{i}.position", int),
            kind=get(f"layer.{i}.kind", str),
            s=get(f"layer.{i}.s"),
            b=get(f"layer.{i}.b") if f"layer.{i}.b" in kv else None,
        )
        for i in range(layer_count)
    )
    report = SpectralReport(layers, flag("power_iteration_converged"))
    # compared as printed text, so that nan, inf and an absent r_a compare as written
    derived = {key: value for _, key, value in read_kv(report_to_text(report))}
    for key in _AGGREGATES:
        if kv.get(key) != derived.get(key):
            get(key, str)  # a missing line is named
            raise ValueError(f"{key} = {kv[key]} does not follow from the layers "
                             f"(expected {derived.get(key, 'no such line')})")
    return report
