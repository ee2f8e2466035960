"""Executable checks of the covering machinery: Maurey sparsification and
the linear-map cover construction, beside the covering-number bound they
check (:func:`covering_bound_linear`, Bartlett, Foster & Telgarsky 2017,
Lemma 3.2).

Maurey sparsification replaces a convex combination f = sum_i alpha_i g_i
(alpha = sum_i alpha_i > 0) by a k-atom average (alpha/k) sum_i k_i g_i with

    E ||f - approx||^2 <= (alpha^2 / k) max_i ||g_i||^2

under the sampling scheme P(atom = g_i) = alpha_i / alpha.  The existence
statement is probabilistic, so the implementation draws ``trials``
independent samplings and keeps the best; by Markov each trial lands within
twice the expectation bound with probability >= 1/2, so 64 trials fail with
probability <= 2^-64.  Asserting the factor-2 ceiling is therefore sound;
hitting the expectation itself is reported but never asserted.

The cover check runs the construction behind the linear covering bound in
the one instantiation the i.i.d. and sequential bounds use: a (2,1)-norm
bound on the weights and a Frobenius bound on the data.  Targets ZA with
||A||_{2,1} <= a are decomposed over the 4dm signed basis directions
+-(y e_i) e_j^T and +-(i y e_i) e_j^T built from the column-normalized data
matrix y, then sparsified with k = ceil(a^2 ||Z||_F^2 / eps^2) atoms.
Weights over the basis act through their d x m coefficient matrix S (a
sparsified point is y S_k), so the basis stays implicit and a check needs
memory O(trials (d m + n m)).  Coverage is verified pointwise on sampled
targets (the full cover has N^k points and is never enumerated); the count
of distinct sparsified points stands in for the cover cardinality.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .clinalg import frobenius_norm, pq_norm
from .textio import f17, kv_text

__all__ = [
    "MaureyInstance",
    "MaureyResult",
    "maurey_sparsify",
    "maurey_expectation_bound",
    "CoverReport",
    "cover_check",
    "cover_report_to_text",
]


@dataclass(frozen=True)
class MaureyInstance:
    """Convex-combination target: elements g_i, nonnegative weights, budget k."""

    elements: tuple
    weights: np.ndarray
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 1 or weights.shape[0] != len(self.elements):
            raise ValueError("one weight per element required")
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite and nonnegative")
        if weights.sum() <= 0:
            raise ValueError("total weight must be positive")
        shapes = {np.asarray(g).shape for g in self.elements}
        if len(shapes) != 1:
            raise ValueError("all elements must share one shape")
        object.__setattr__(self, "weights", weights)

    @property
    def alpha(self) -> float:
        return float(self.weights.sum())

    def target(self) -> np.ndarray:
        stack = np.stack([np.asarray(g, dtype=np.complex128) for g in self.elements])
        return np.tensordot(self.weights, stack, axes=1)


@dataclass(frozen=True)
class MaureyResult:
    counts: np.ndarray  # k_i, sum = k
    approximant: np.ndarray
    error: float


def maurey_expectation_bound(inst: MaureyInstance) -> float:
    """The expectation ceiling (alpha^2 / k) max_i ||g_i||^2."""
    worst = max(frobenius_norm(np.atleast_2d(np.asarray(g))) for g in inst.elements)
    return inst.alpha**2 / inst.k * worst**2


def maurey_sparsify(inst: MaureyInstance, trials: int, seed: int = 0) -> MaureyResult:
    """Best-of-``trials`` random sparsification of the instance target."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    alpha = inst.alpha
    probs = inst.weights / alpha
    stack = np.stack([np.asarray(g, dtype=np.complex128) for g in inst.elements])
    flat = stack.reshape(len(inst.elements), -1)
    f = (inst.weights @ flat).reshape(stack.shape[1:])
    counts = rng.multinomial(inst.k, probs, size=trials)  # (trials, N)
    # counts/k first: the all-mass-on-one-atom case then reproduces alpha g_i
    # exactly instead of picking up (alpha/k)*k roundoff
    approx = alpha * ((counts / inst.k) @ flat)
    errors = np.sqrt(np.sum(np.abs(approx - f.ravel()) ** 2, axis=1))
    best = int(np.argmin(errors))
    return MaureyResult(
        counts=counts[best],
        approximant=approx[best].reshape(stack.shape[1:]),
        error=float(errors[best]),
    )


def _decomposition_weights(s, d: int, m: int) -> np.ndarray:
    """Weights over the signed basis reproducing Y S exactly, ordered
    real-part block first, each block sign-major then (i, j) row-major."""
    re, im = s.real, s.imag
    blocks = [
        np.maximum(re, 0.0),  # +real directions
        np.maximum(-re, 0.0),  # -real directions
        np.maximum(im, 0.0),  # +imag directions
        np.maximum(-im, 0.0),  # -imag directions
    ]
    return np.concatenate([b.reshape(d * m) for b in blocks])


def _coefficients(weights, d: int, m: int) -> np.ndarray:
    """The d x m coefficient matrix (w+re - w-re) + i (w+im - w-im) of signed
    basis weights along the last axis; leading axes are kept."""
    w = np.reshape(weights, np.shape(weights)[:-1] + (4, d, m))
    return (w[..., 0, :, :] - w[..., 1, :, :]) + 1j * (w[..., 2, :, :] - w[..., 3, :, :])


def covering_bound_linear(a: float, b: float, m: int, eps: float, d: int) -> float:
    """log covering number bound for {ZA : ||A||_{2,1} <= a} with ||Z||_F <= b."""
    if m < 1 or d < 1:
        raise ValueError("m, d must be positive integers")
    return _maurey_k(a, b, eps) * math.log(4.0 * d * m)


def _maurey_k(a: float, b: float, eps: float) -> int:
    """Atoms k = ceil(a^2 b^2 / eps^2) that Maurey sparsification needs to
    cover {ZA : ||A||_{2,1} <= a} at scale eps, ||Z||_F <= b."""
    if not (a > 0 and b > 0 and eps > 0):  # also nan
        raise ValueError("a, b, eps must be positive")
    ratio = a * a * b * b / (eps * eps) if eps * eps > 0 else math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError("k = ceil(a^2 b^2 / eps^2) is beyond the float range")
    return math.ceil(ratio)


@dataclass(frozen=True)
class CoverReport:
    """One cover check; :func:`cover_report_to_text` writes the fields in this order."""

    d: int
    m: int
    n: int
    a: float
    eps: float
    k: int
    trials: int
    samples: int
    achieved_error: float  # worst best-trial error across samples
    theoretical_error: float  # sqrt of the Maurey expectation ceiling
    frac_within_eps: float
    distinct_cover_points_used: int
    bound_ln_cover: float


def cover_target(z, a_mat, k: int, trials: int, seed: int = 0, alpha_cap: float | None = None):
    """Decompose ZA over the signed basis and sparsify one target.

    Returns (error, counts), counts in signed-basis order; the trial errors
    are ||y (S_k - S)||_F.  A zero weight matrix is covered exactly by the
    zero cover point (all counts zero).  Raises AssertionError when the
    decomposition fails to reproduce ZA or the mass inequality
    ||S||_1 <= alpha_cap is violated.
    """
    z = np.asarray(z, dtype=np.complex128)
    a_mat = np.asarray(a_mat, dtype=np.complex128)
    _, d = z.shape
    d2, m = a_mat.shape
    if d2 != d:
        raise ValueError("A must have one row per column of Z")
    col_norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
    if np.any(col_norms == 0.0):
        raise ValueError("z must have no zero column")
    y = z / col_norms
    za = z @ a_mat
    s = col_norms[:, None] * a_mat  # Hadamard scaling: ZA = Y S
    if alpha_cap is not None and pq_norm(s, 1, 1) > alpha_cap * (1.0 + 1e-9):
        raise AssertionError("mass inequality ||S||_1 <= alpha violated")
    weights = _decomposition_weights(s, d, m)
    recon = y @ _coefficients(weights, d, m)
    if frobenius_norm(recon - za) > 1e-10 * max(1.0, frobenius_norm(za)):
        raise AssertionError("basis decomposition does not reproduce ZA")
    if weights.sum() == 0.0:
        return 0.0, np.zeros(weights.shape, dtype=int)
    if k < 1 or trials < 1:
        raise ValueError("k and trials must be positive integers")
    # the draw of maurey_sparsify on MaureyInstance(basis, weights, k)
    alpha = float(weights.sum())
    counts = np.random.default_rng(seed).multinomial(k, weights / alpha, size=trials)
    residual = y @ (_coefficients(alpha * (counts / k), d, m) - s)
    errors = np.sqrt(np.sum(np.abs(residual) ** 2, axis=(1, 2)))
    best = int(np.argmin(errors))
    return float(errors[best]), counts[best]


def cover_check(
    z,
    a: float,
    eps: float,
    n_samples: int,
    trials: int,
    m: int,
    seed: int = 0,
) -> CoverReport:
    """Pointwise verification that sparsified combinations cover {ZA}.

    Draws ``n_samples`` random A of shape (d, m) with ||A||_{2,1} = a,
    decomposes each ZA over the signed basis, sparsifies with the
    prescribed k, and records coverage.  Asserts the Markov-slack ceiling:
    every best-trial error is at most sqrt(2) * eps.
    """
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim != 2 or not np.any(z):
        raise ValueError("z must be a nonzero matrix")
    n, d = z.shape
    if m < 1 or n_samples < 1:
        raise ValueError("m and n_samples must be positive")
    b_norm = frobenius_norm(z)
    k = _maurey_k(a, b_norm, eps)
    alpha_proof = a * b_norm

    rng = np.random.default_rng(seed)
    worst = 0.0
    within = 0
    distinct: set = set()
    for sample in range(n_samples):
        raw = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
        a_mat = raw * (a / pq_norm(raw, 2, 1))
        error, counts = cover_target(
            z, a_mat, k, trials=trials, seed=seed + 1 + sample, alpha_cap=alpha_proof
        )
        worst = max(worst, error)
        if error <= eps:
            within += 1
        distinct.add(counts.tobytes())  # one shape and dtype for every sample
    if worst > math.sqrt(2.0) * eps:
        raise AssertionError(
            f"worst error {f17(worst)} exceeds sqrt(2) * eps = {f17(math.sqrt(2.0) * eps)}"
        )
    return CoverReport(
        d=d,
        m=m,
        n=n,
        a=a,
        eps=eps,
        k=k,
        trials=trials,
        samples=n_samples,
        achieved_error=worst,
        theoretical_error=alpha_proof / math.sqrt(k),
        frac_within_eps=within / n_samples,
        distinct_cover_points_used=len(distinct),
        bound_ln_cover=covering_bound_linear(a, b_norm, m, eps, d),
    )


def cover_report_to_text(report: CoverReport) -> str:
    return kv_text([("format", "cover-report-v1"), *asdict(report).items()])
