"""Complex matrix arithmetic and the norms used throughout the suite.

All matrices are dense ``numpy`` arrays of dtype complex128.  Norms follow
the entry-modulus convention: the norm of a complex matrix is the norm of
the real matrix of entrywise moduli.  The spectral norm is the largest
singular value, computed here by power iteration on the Hermitian product
A*A; an independent dense route through the real embedding is provided as
an oracle.

Everything in this module is a pure function over immutable inputs and is
safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_cmatrix",
    "frobenius_norm",
    "pq_norm",
    "real_embedding",
    "PowerIterationResult",
    "gram_power_iteration",
    "spectral_norm_power",
    "spectral_norm",
    "spectral_norm_oracle",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a validated 2-D complex128 array (finite entries only)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius_norm(a) -> float:
    """sqrt of the sum of squared entry moduli."""
    return float(np.sqrt(np.sum(np.abs(as_cmatrix(a)) ** 2)))


def pq_norm(a, p: float, q: float) -> float:
    """q-norm of the vector of column p-norms, taken on entry moduli.

    Either exponent may be ``math.inf``.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    mods = np.abs(as_cmatrix(a))
    if math.isinf(p):
        cols = mods.max(axis=0) if mods.shape[0] else np.zeros(mods.shape[1])
    else:
        cols = np.sum(mods**p, axis=0) ** (1.0 / p)
    if math.isinf(q):
        return float(cols.max()) if cols.size else 0.0
    return float(np.sum(cols**q) ** (1.0 / q))


def real_embedding(a) -> np.ndarray:
    """Real block matrix [[C, -D], [D, C]] for a = C + Di.

    It acts on stacked (re; im) coordinates and has the same spectral
    norm as ``a`` (every singular value of ``a`` appears twice).
    """
    a = as_cmatrix(a)
    c, d = a.real, a.imag
    return np.block([[c, -d], [d, c]])


@dataclass(frozen=True)
class PowerIterationResult:
    """Spectral norm estimate plus convergence metadata."""

    value: float
    iterations: int
    converged: bool


def gram_power_iteration(gram_apply, start, tol, max_iter) -> PowerIterationResult:
    """Power iteration on a Hermitian PSD operator (a Gram map w = A*A v).

    The Rayleigh quotients increase monotonically and converge geometrically,
    so the remaining gap to the limit is estimated by extrapolating
    consecutive increments (Aitken's delta-squared); iteration stops once the
    extrapolated remainder falls below ``tol`` relative to the current
    quotient, and the remainder is folded into the returned value.  Plain
    last-increment stagnation tests stop too early when the top two
    eigenvalues are close.  An overflow (non-finite quotient or iterate
    norm) stops with value inf and ``converged=False`` rather than letting
    the zeroed iterate pass for a null vector.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    v = start / np.linalg.norm(start)
    floor = np.finfo(float).tiny
    lam = 0.0
    lam_prev = None
    delta_prev = None
    for it in range(1, max_iter + 1):
        w = gram_apply(v)
        lam = float(np.real(np.vdot(v.ravel(), w.ravel())))  # real for Hermitian PSD
        norm_w = np.linalg.norm(w)
        if not (math.isfinite(lam) and math.isfinite(norm_w)):
            # overflow: any estimate from here on would be meaningless
            return PowerIterationResult(math.inf, it, False)
        if norm_w == 0.0:
            # v lies in the null space; the Rayleigh quotient is exactly 0
            return PowerIterationResult(0.0, it, True)
        v = w / norm_w
        if lam_prev is not None:
            delta = lam - lam_prev
            if delta <= floor:
                return PowerIterationResult(math.sqrt(max(lam, 0.0)), it, True)
            if delta_prev is not None and delta < delta_prev:
                ratio = delta / delta_prev
                remainder = delta * ratio / (1.0 - ratio)
                if remainder <= tol * max(lam, floor):
                    return PowerIterationResult(math.sqrt(lam + remainder), it, True)
            delta_prev = delta
        lam_prev = lam
    return PowerIterationResult(math.sqrt(max(lam, 0.0)), max_iter, False)


def spectral_norm_power(
    a,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> PowerIterationResult:
    """Largest singular value via power iteration on A*A.

    Starts from a seeded random complex vector; see
    :func:`gram_power_iteration` for the convergence rule.  The zero matrix
    short-circuits to 0 (power iteration is undefined on the zero map).
    Non-convergence within ``max_iter`` is reported through the
    ``converged`` flag; the last estimate is still returned.
    """
    a = as_cmatrix(a)
    if a.size == 0 or not np.any(a):
        return PowerIterationResult(0.0, 0, True)
    rng = np.random.default_rng(seed)
    n = a.shape[1]
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return gram_power_iteration(lambda v: a.conj().T @ (a @ v), start, tol, max_iter)


def spectral_norm(
    a,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> float:
    """Convenience wrapper around :func:`spectral_norm_power`."""
    return spectral_norm_power(a, tol=tol, max_iter=max_iter, seed=seed).value


def spectral_norm_oracle(a) -> float:
    """Independent dense route: largest singular value of the real embedding.

    Uses a LAPACK singular-value decomposition, sharing no code with the
    power-iteration path.
    """
    emb = real_embedding(a)
    if emb.size == 0:
        return 0.0
    return float(np.linalg.svd(emb, compute_uv=False)[0])
