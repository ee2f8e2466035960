"""Per-layer norm extraction, spectral complexity, and closed-form bound evaluators.

The spectral complexity of a network with weighted layers (A_1 .. A_L),
activation Lipschitz constants rho_i, spectral norms s_i = ||A_i||_sigma and
(2,1) norms b_i = ||A_i^T||_{2,1} is

    R_A = (prod_i rho_i s_i) * (sum_i (b_i / s_i)^(2/3))^(3/2).

Dense layers contribute their weight matrix directly (stored in the
(d_{i-1}, d_i) orientation).  Convolutional layers act through the linear
map they induce on a fixed input shape: the spectral norm comes from power
iteration through the operator of :mod:`cvnnlab.conv` that training runs
(its apply and adjoint on a batch of one), and the (2,1) norm from that
module's explicit dense lowering of the map.  When the lowering
exceeds the memory budget the report degrades to sn-product-only mode and
R_A-based bounds refuse to run.  Modulus max-pooling and the abs head are
1-Lipschitz and contribute neither s_i nor b_i.

Bound evaluators cover the i.i.d. and sequential generalization bounds, the
empirical Rademacher complexity ceiling behind the i.i.d. bound, covering
number bounds for a single linear map and for a whole network, and the
PAC sample-size threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import conv
from .activations import declared_lipschitz, lipschitz_probe
from .clinalg import (
    PowerIterationResult,
    gram_power_iteration,
    pq_norm,
    spectral_norm_power,
)
from .conv import DEFAULT_LOWERING_BUDGET, LoweringBudgetError, layer_matrix
from .network import AbsHead, Conv, Dense, MaxPoolModulus, Network, infer_shapes

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
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
) -> PowerIterationResult:
    """Largest singular value of the induced linear map, matrix-free.

    Power iteration runs the training operator (:func:`cvnnlab.conv.apply`
    and :func:`cvnnlab.conv.adjoint`) on a batch of one; the convergence
    rule is shared with the dense path
    (:func:`cvnnlab.clinalg.gram_power_iteration`).
    """
    kernel = np.asarray(kernel, dtype=np.complex128)
    if not np.any(kernel):
        return PowerIterationResult(0.0, 0, True)
    rng = np.random.default_rng(seed)
    shape = (1,) + tuple(input_shape)
    start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return gram_power_iteration(
        lambda v: conv.adjoint(conv.apply(v, kernel)[0], kernel, shape),
        start,
        tol,
        max_iter,
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
    empirical_rho: bool


@dataclass(frozen=True)
class SpectralReport:
    layers: tuple
    sn_product: float
    lipschitz_product: float
    r_a: float | None
    sn_product_only: bool
    empirical_rho: bool
    thresholds_nonzero: bool
    power_iteration_converged: bool


def _layer_rho(activation, domain_bound, probe_pairs, probe_seed):
    """(rho, is_empirical) for a layer's activation; identity counts as 1."""
    if activation is None:
        return 1.0, False
    declared = declared_lipschitz(activation, domain_bound=domain_bound)
    if declared is not None:
        return float(declared), False
    bound = 10.0 if domain_bound is None else float(domain_bound)
    return lipschitz_probe(activation, bound, probe_pairs, seed=probe_seed), True


def analyze(
    net: Network,
    input_shape,
    *,
    tol: float = 1e-10,
    max_iter: int = 1000,
    seed: int = 0,
    memory_budget: int | None = DEFAULT_LOWERING_BUDGET,
    domain_bound: float | None = None,
    probe_pairs: int = 50_000,
) -> SpectralReport:
    """Per-layer spectral data and the aggregate complexity of a network.

    ``input_shape`` fixes the linear map induced by each conv layer.  For
    amp_tanh activations a ``domain_bound`` is required (their constant only
    holds on a bounded square); modrelu layers fall back to the empirical
    probe and mark the report non-rigorous.
    """
    shapes = infer_shapes(net.layers, input_shape)
    records = []
    sn_product_only = False
    converged = True
    for pos, spec in enumerate(net.layers):
        if isinstance(spec, (MaxPoolModulus, AbsHead)):
            continue  # 1-Lipschitz, no weight: contributes nothing to R_A
        if isinstance(spec, Dense):
            a = net.weights[pos]
            res = spectral_norm_power(a, tol=tol, max_iter=max_iter, seed=seed)
            s = res.value
            b = pq_norm(a.T, 2, 1)
        elif isinstance(spec, Conv):
            kernel = net.weights[pos]
            res = conv_spectral_norm(
                kernel, shapes[pos], tol=tol, max_iter=max_iter, seed=seed
            )
            s = res.value
            try:
                m = layer_matrix(kernel, shapes[pos], memory_budget=memory_budget)
                # the weight-matrix orientation (inputs x outputs) is the
                # transpose of the column-action lowering, so ||A^T||_{2,1}
                # is the (2,1) norm of the lowering itself
                b = pq_norm(m, 2, 1)
            except LoweringBudgetError:
                b = None
                sn_product_only = True
        converged = converged and res.converged
        rho, empirical = _layer_rho(spec.activation, domain_bound, probe_pairs, seed)
        records.append(
            LayerNorms(
                position=pos,
                kind="dense" if isinstance(spec, Dense) else "conv",
                s=s,
                b=b,
                rho=rho,
                empirical_rho=empirical,
            )
        )
    if not records:
        raise ValueError("network has no weighted layers")
    sn_product = 1.0
    lipschitz_product = 1.0
    for rec in records:
        sn_product *= rec.s
        lipschitz_product *= rec.rho * rec.s
    if sn_product_only:
        r_a = None
    elif any(rec.s == 0.0 for rec in records):
        r_a = 0.0
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
        empirical_rho=any(rec.empirical_rho for rec in records),
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
        if self.m <= 0 or self.n <= 0 or self.w <= 0 or self.z_norm <= 0:
            raise ValueError("m, n, w, z_norm must be positive")
        if self.r_a < 0:
            raise ValueError("r_a must be nonnegative")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")


def bound_iid(inp: BoundInputs) -> float:
    """Generalization gap bound for i.i.d. samples (confidence 1 - delta)."""
    n = float(inp.n)
    return (
        8.0 * inp.m / n**1.5
        + 36.0 * inp.z_norm * math.sqrt(2.0 * math.log(2.0 * inp.w)) * math.log(n) * inp.r_a / n
        + 3.0 * inp.m * math.sqrt(math.log(2.0 / inp.delta) / (2.0 * n))
    )


def bound_sequential(inp: BoundInputs) -> float:
    """Generalization gap bound for adapted (sequential) samples."""
    n = float(inp.n)
    return (
        8.0 * inp.m / n
        + 24.0 * inp.z_norm * math.sqrt(2.0 * math.log(2.0 * inp.w)) * math.log(n) * inp.r_a / n
        + inp.m * math.sqrt(math.log(2.0 / inp.delta) / (2.0 * n))
    )


def rademacher_bound(m: float, n: int, w: int, z_norm: float, r_a: float) -> float:
    """Empirical Rademacher complexity ceiling behind the i.i.d. bound.

    Satisfies bound_iid == 2 * rademacher_bound + 3 M sqrt(ln(2/delta)/(2n))
    exactly.
    """
    if m <= 0 or n <= 0 or w <= 0 or z_norm <= 0 or r_a < 0:
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
    if eps <= 0:
        raise ValueError("eps must be positive")
    prod = 1.0
    ratio_sum = 0.0
    for s, b, rho in layers:
        if s <= 0:
            raise ValueError("covering bound needs s_i > 0")
        prod *= s * s * rho * rho
        ratio_sum += (b / s) ** (2.0 / 3.0)
    return (z_norm**2 * math.log(4.0 * w * w) / eps**2) * prod * ratio_sum**3


def covering_bound_linear(a: float, b: float, m: int, r: float, eps: float, d: int) -> float:
    """log covering number bound for {ZA : ||A||_{q,s} <= a} with ||Z||_p <= b.

    ``r`` is the exponent conjugate to the data's p-norm; r = inf gives the
    m^(2/r) = 1 instantiation the i.i.d. bound uses.
    """
    if a <= 0 or b <= 0 or eps <= 0:
        raise ValueError("a, b, eps must be positive")
    if m < 1 or d < 1:
        raise ValueError("m, d must be positive integers")
    if r < 1:
        raise ValueError("r must be >= 1 (possibly inf)")
    m_pow = 1.0 if math.isinf(r) else float(m) ** (2.0 / r)
    return math.ceil(a * a * b * b * m_pow / (eps * eps)) * math.log(4.0 * d * m)


def pac_sample_size(
    eps: float, delta: float, m: float, z_norm: float, w: int, r_a: float
) -> int:
    """Smallest sample count guaranteeing eps-optimal empirical minimization
    with probability 1 - delta."""
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ValueError("eps and delta must lie in (0, 1)")
    if m <= 0 or z_norm <= 0 or w < 1 or r_a < 0:
        raise ValueError("m, z_norm, w must be positive; r_a nonnegative")
    inner = (
        8.0 * m
        + 36.0 * z_norm * math.sqrt(2.0 * math.log(2.0 * w)) * r_a
        + 3.0 * m * math.sqrt(math.log(2.0 / delta) / 2.0)
    )
    return int(math.ceil(8.0 / eps**3 * inner**3))


# ---------------------------------------------------------------------------
# flat key-value serialization


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def report_to_text(report: SpectralReport) -> str:
    lines = [
        "format = spectral-report-v1",
        f"layer_count = {len(report.layers)}",
        f"sn_product_only = {str(report.sn_product_only).lower()}",
        f"empirical_rho = {str(report.empirical_rho).lower()}",
        f"thresholds_nonzero = {str(report.thresholds_nonzero).lower()}",
        f"power_iteration_converged = {str(report.power_iteration_converged).lower()}",
    ]
    for i, rec in enumerate(report.layers):
        prefix = f"layer.{i}"
        lines.append(f"{prefix}.position = {rec.position}")
        lines.append(f"{prefix}.kind = {rec.kind}")
        lines.append(f"{prefix}.s = {_f17(rec.s)}")
        if rec.b is not None:
            lines.append(f"{prefix}.b = {_f17(rec.b)}")
        lines.append(f"{prefix}.rho = {_f17(rec.rho)}")
        lines.append(f"{prefix}.empirical_rho = {str(rec.empirical_rho).lower()}")
    lines.append(f"sn_product = {_f17(report.sn_product)}")
    lines.append(f"lipschitz_product = {_f17(report.lipschitz_product)}")
    if report.r_a is not None:
        lines.append(f"r_a = {_f17(report.r_a)}")
    return "\n".join(lines) + "\n"


def _parse_flat_kv(text: str) -> dict:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def report_from_text(text: str) -> SpectralReport:
    kv = _parse_flat_kv(text)
    if kv.get("format") != "spectral-report-v1":
        raise ValueError(f"unsupported report format {kv.get('format')!r}")
    count = int(kv["layer_count"])
    layers = []
    for i in range(count):
        prefix = f"layer.{i}"
        layers.append(
            LayerNorms(
                position=int(kv[f"{prefix}.position"]),
                kind=kv[f"{prefix}.kind"],
                s=float(kv[f"{prefix}.s"]),
                b=float(kv[f"{prefix}.b"]) if f"{prefix}.b" in kv else None,
                rho=float(kv[f"{prefix}.rho"]),
                empirical_rho=kv[f"{prefix}.empirical_rho"] == "true",
            )
        )
    return SpectralReport(
        layers=tuple(layers),
        sn_product=float(kv["sn_product"]),
        lipschitz_product=float(kv["lipschitz_product"]),
        r_a=float(kv["r_a"]) if "r_a" in kv else None,
        sn_product_only=kv["sn_product_only"] == "true",
        empirical_rho=kv["empirical_rho"] == "true",
        thresholds_nonzero=kv["thresholds_nonzero"] == "true",
        power_iteration_converged=kv.get("power_iteration_converged", "true") == "true",
    )
