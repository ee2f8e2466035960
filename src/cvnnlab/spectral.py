"""Per-layer norm extraction, spectral complexity, and closed-form bound evaluators.

The spectral complexity of a network with weighted layers (A_1 .. A_L),
activation Lipschitz constants rho_i, spectral norms s_i = ||A_i||_sigma and
(2,1) norms b_i = ||A_i^T||_{2,1} is

    R_A = (prod_i rho_i s_i) * (sum_i (b_i / s_i)^(2/3))^(3/2).

Dense layers contribute their weight matrix directly (stored in the
(d_{i-1}, d_i) orientation).  Convolutional layers act through the linear
map they induce on a fixed input shape: the spectral norm comes from
Lanczos through the operator of :mod:`cvnnlab.conv` that training runs
(its apply and adjoint on a batch of one), and the (2,1) norm from that
module's explicit dense lowering of the map.  Each rho_i is the
activation's declared constant on all of C
(:func:`cvnnlab.activations.declared_lipschitz`); nothing is probed.  When
a lowering exceeds the memory budget, or an activation has no finite
constant (modrelu with b > 0), the report degrades to sn-product-only mode
and R_A-based bounds refuse to run.  Modulus max-pooling and the abs head
are 1-Lipschitz and contribute neither s_i nor b_i.

Bound evaluators cover the i.i.d. and sequential generalization bounds, the
empirical Rademacher complexity ceiling behind the i.i.d. bound, covering
number bounds for a single linear map and for a whole network, and the
PAC sample-size threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import conv
from .activations import declared_lipschitz
from .clinalg import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    PowerIterationResult,
    gram_lanczos,
    pq_norm,
    spectral_norm_power,
)
from .conv import LoweringBudgetError, layer_matrix
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
    "covering_bound_network",
    "covering_bound_linear",
    "pac_sample_size",
    "report_to_text",
    "report_from_text",
]

# ---------------------------------------------------------------------------
# convolution spectral norm


def conv_spectral_norm(
    kernel,
    input_shape,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> PowerIterationResult:
    """Largest singular value of the induced linear map, matrix-free.

    Lanczos (:func:`cvnnlab.clinalg.gram_lanczos`, as on the dense path)
    runs the training operator (:func:`cvnnlab.conv.apply` and
    :func:`cvnnlab.conv.adjoint`) on a batch of one.
    """
    kernel = np.asarray(kernel, dtype=np.complex128)
    if not np.any(kernel):
        return PowerIterationResult(0.0, 0, True)
    shape = (1,) + tuple(input_shape)
    return gram_lanczos(
        lambda v: conv.adjoint(conv.apply(v, kernel)[0], kernel, shape),
        shape, tol, max_iter, seed,
    )


# ---------------------------------------------------------------------------
# network analysis


@dataclass(frozen=True)
class LayerNorms:
    position: int
    kind: str  # "dense" | "conv"
    s: float
    b: float | None
    rho: float


@dataclass(frozen=True)
class SpectralReport:
    layers: tuple
    sn_product: float
    lipschitz_product: float
    r_a: float | None
    sn_product_only: bool
    thresholds_nonzero: bool
    power_iteration_converged: bool  # every layer's solve; the name is report format v2's


def analyze(net: Network, input_shape) -> SpectralReport:
    """Per-layer spectral data and the aggregate complexity of a network.

    ``input_shape`` fixes the linear map induced by each conv layer; an
    identity activation counts as rho = 1.
    """
    shapes = infer_shapes(net.layers, input_shape)
    records = []
    sn_product_only = False
    converged = True
    for pos, spec in enumerate(net.layers):
        if spec.param_shapes() is None:
            continue  # 1-Lipschitz, no weight: contributes nothing to R_A
        if isinstance(spec, Dense):
            a = net.weights[pos]
            res = spectral_norm_power(a)
            s = res.value
            b = pq_norm(a.T, 2, 1)
        elif isinstance(spec, Conv):
            kernel = net.weights[pos]
            res = conv_spectral_norm(kernel, shapes[pos])
            s = res.value
            try:
                m = layer_matrix(kernel, shapes[pos])
                # the weight-matrix orientation (inputs x outputs) is the
                # transpose of the column-action lowering, so ||A^T||_{2,1}
                # is the (2,1) norm of the lowering itself
                b = pq_norm(m, 2, 1)
            except LoweringBudgetError:
                b = None
                sn_product_only = True
        converged = converged and res.converged
        rho = 1.0 if spec.activation is None else declared_lipschitz(spec.activation)
        sn_product_only |= math.isinf(rho)
        kind = "dense" if isinstance(spec, Dense) else "conv"
        records.append(LayerNorms(position=pos, kind=kind, s=s, b=b, rho=rho))
    if not records:
        raise ValueError("network has no weighted layers")
    # a zero map makes the network constant, even after rho = inf or an
    # overflowed s = inf elsewhere (whose product with 0 would read nan)
    zero_map = any(rec.s == 0.0 for rec in records)
    sn_product = 0.0 if zero_map else math.prod(rec.s for rec in records)
    lipschitz_product = 0.0 if zero_map else math.prod(rec.rho * rec.s for rec in records)
    if sn_product_only:
        r_a = None
    elif zero_map:
        r_a = 0.0
    elif any(math.isinf(rec.s) for rec in records):
        r_a = math.inf  # b / s would read 0 (or nan) and hide the overflow
    else:
        ratio_sum = sum((rec.b / rec.s) ** (2.0 / 3.0) for rec in records)
        r_a = lipschitz_product * ratio_sum**1.5
    thresholds_nonzero = any(
        h is not None and np.any(np.abs(h) > 0.0) for h in net.thresholds
    )
    return SpectralReport(
        layers=tuple(records),
        sn_product=sn_product,
        lipschitz_product=lipschitz_product,
        r_a=r_a,
        sn_product_only=sn_product_only,
        thresholds_nonzero=thresholds_nonzero,
        power_iteration_converged=converged,
    )


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


def covering_bound_network(z_norm: float, w: int, eps: float, layers) -> float:
    """log covering number bound of the whole network's output family.

    ``layers`` holds (s_i, b_i, rho_i) triples; every s_i must be positive.
    """
    if not (eps > 0 and eps * eps > 0):  # also nan, and an eps whose square underflows
        raise ValueError("eps must be positive, with a nonzero square")
    prod = 1.0
    ratio_sum = 0.0
    for s, b, rho in layers:
        if s <= 0:
            raise ValueError("covering bound needs s_i > 0")
        prod *= s * s * rho * rho
        ratio_sum += (b / s) ** (2.0 / 3.0)
    return (z_norm**2 * math.log(4.0 * w * w) / (eps * eps)) * prod * ratio_sum**3


def covering_bound_linear(a: float, b: float, m: int, r: float, eps: float, d: int) -> float:
    """log covering number bound for {ZA : ||A||_{q,s} <= a} with ||Z||_p <= b.

    ``r`` is the exponent conjugate to the data's p-norm; r = inf gives the
    m^(2/r) = 1 instantiation the i.i.d. bound uses.
    """
    if m < 1 or d < 1:
        raise ValueError("m, d must be positive integers")
    if r < 1:
        raise ValueError("r must be >= 1 (possibly inf)")
    return _maurey_k(a, b, m, r, eps) * math.log(4.0 * d * m)


def _maurey_k(a: float, b: float, m: int, r: float, eps: float) -> int:
    """Atoms k = ceil(a^2 b^2 m^(2/r) / eps^2) that Maurey sparsification
    needs to cover {ZA : ||A||_{q,s} <= a} at scale eps, ||Z||_p <= b."""
    if not (a > 0 and b > 0 and eps > 0):  # also nan
        raise ValueError("a, b, eps must be positive")
    m_pow = 1.0 if math.isinf(r) else float(m) ** (2.0 / r)
    ratio = a * a * b * b * m_pow / (eps * eps) if eps * eps > 0 else math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError("k = ceil(a^2 b^2 m^(2/r) / eps^2) is beyond the float range")
    return math.ceil(ratio)


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

REPORT_FORMAT = "spectral-report-v2"

_REPORT_FLAGS = ("sn_product_only", "thresholds_nonzero", "power_iteration_converged")


def report_to_text(report: SpectralReport) -> str:
    """Format ``spectral-report-v2``: the flags, each layer's fields under
    ``layer.<i>.`` and the aggregates; a None ``b`` or ``r_a`` is left out."""
    pairs = [("format", REPORT_FORMAT), ("layer_count", len(report.layers))]
    pairs += [(name, getattr(report, name)) for name in _REPORT_FLAGS]
    for i, rec in enumerate(report.layers):
        pairs += [(f"layer.{i}.{name}", value) for name, value in asdict(rec).items()]
    pairs += [(name, getattr(report, name)) for name in ("sn_product", "lipschitz_product", "r_a")]
    return kv_text(pairs)


def report_from_text(text: str) -> SpectralReport:
    """Inverse of :func:`report_to_text`; a missing key raises ValueError.

    A ``spectral-report-v1`` text is refused: it may carry a probed rho and
    an r_a built from it."""
    kv = {key: value for _, key, value in read_kv(text)}
    if kv.get("format") != REPORT_FORMAT:
        raise ValueError(f"unsupported report format {kv.get('format')!r}")

    def get(key, convert=float):
        if key not in kv:
            raise ValueError(f"report lacks {key!r}")
        return convert(kv[key])

    def optional(key):
        return get(key) if key in kv else None

    def flag(key):
        return get(key, str) == "true"

    layers = tuple(
        LayerNorms(
            position=get(f"layer.{i}.position", int),
            kind=get(f"layer.{i}.kind", str),
            s=get(f"layer.{i}.s"),
            b=optional(f"layer.{i}.b"),
            rho=get(f"layer.{i}.rho"),
        )
        for i in range(get("layer_count", int))
    )
    return SpectralReport(
        layers=layers,
        sn_product=get("sn_product"),
        lipschitz_product=get("lipschitz_product"),
        r_a=optional("r_a"),
        sn_product_only=flag("sn_product_only"),
        thresholds_nonzero=flag("thresholds_nonzero"),
        power_iteration_converged=flag("power_iteration_converged"),
    )
