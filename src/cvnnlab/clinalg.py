"""Complex matrix arithmetic and the norms used throughout the suite.

All matrices are dense ``numpy`` arrays of dtype complex128, except the
real left operand that :func:`matmul_complex` accepts.  Norms follow
the entry-modulus convention: the norm of a complex matrix is the norm of
the real matrix of entrywise moduli.  The spectral norm is the largest
singular value, computed here by Lanczos on the Hermitian product A*A;
an independent dense route through the real embedding is provided as an
oracle.

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
    "matmul_complex",
    "PowerIterationResult",
    "gram_lanczos",
    "spectral_norm_power",
    "spectral_norm",
    "spectral_norm_oracle",
]

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000
_BASIS_BLOCK = 32  # Lanczos basis rows allocated at a time


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


def _p_norms(mods, p):
    """p-norms of the columns of a nonnegative matrix, which is overwritten.

    Each column is first divided by the power of two at its largest entry,
    so the powers of a finite matrix cannot overflow; for p in {1, 2} the
    scaling is exact and the result is that of the unscaled formula.
    """
    if mods.shape[0] == 0:
        return np.zeros(mods.shape[1])
    top = mods.max(axis=0)
    if math.isinf(p):
        return top
    _, exp = np.frexp(top)
    exp = np.maximum(exp, -1022)  # 2**-exp stays finite for a subnormal top
    mods *= np.ldexp(1.0, -exp)
    mods **= p
    return np.ldexp(np.sum(mods, axis=0) ** (1.0 / p), exp)


def pq_norm(a, p: float, q: float) -> float:
    """q-norm of the vector of column p-norms, taken on entry moduli.

    Either exponent may be ``math.inf``.  A finite matrix gets a finite
    norm unless the norm itself exceeds the float range.
    """
    if p < 1 or q < 1:
        raise ValueError("p and q must be >= 1")
    cols = _p_norms(np.abs(as_cmatrix(a)), p)
    return float(_p_norms(cols[:, None], q)[0])


def real_embedding(a) -> np.ndarray:
    """Real block matrix [[C, -D], [D, C]] for a = C + Di.

    It acts on stacked (re; im) coordinates and has the same spectral
    norm as ``a`` (every singular value of ``a`` appears twice).
    """
    a = as_cmatrix(a)
    c, d = a.real, a.imag
    return np.block([[c, -d], [d, c]])


def matmul_complex(a, w, out=None) -> np.ndarray:
    """``a @ w`` for a complex ``w`` (2-D) and a real or complex ``a``,
    written into ``out`` (a C-contiguous complex128 array) when given.

    A real ``a`` multiplies the float64 (re, im) view of ``w`` in one real
    GEMM, where numpy would cast ``a`` to complex and run a complex GEMM:
    4x the flops on 2x the bytes, on a zero imaginary part.
    """
    if np.iscomplexobj(a):
        return np.matmul(a, w, out=out)
    w = np.ascontiguousarray(w, dtype=np.complex128).view(np.float64)
    if out is None:
        return (a @ w).view(np.complex128)
    np.matmul(a, w, out=out.view(np.float64))
    return out


@dataclass(frozen=True)
class PowerIterationResult:
    """Spectral norm estimate plus convergence metadata."""

    value: float
    iterations: int
    converged: bool


def gram_lanczos(gram_apply, shape, tol, max_iter, seed) -> PowerIterationResult:
    """sqrt of the largest eigenvalue of a Hermitian PSD operator (a Gram map
    w = A*A v on arrays of ``shape``), by Lanczos from a seeded random start.

    The basis is kept orthonormal by two Gram-Schmidt passes per step.  The
    top Ritz value theta of the tridiagonal is a lower bound on the
    eigenvalue; iteration stops once its residual beta_k |e_k^T s| falls to
    ``tol * theta`` (beta_k = 0 means an invariant subspace: theta is exact).
    The Krylov dimension is capped at min(max_iter, size); reaching the size
    is exact, so it counts as converged.  ``iterations`` counts operator
    applications.  An overflow stops with value inf and ``converged=False``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    q = start.ravel() / np.linalg.norm(start)
    n = q.size
    k_max = min(max_iter, n)
    basis = np.empty((0, n), dtype=np.complex128)
    alphas, betas = [], []
    theta = 0.0
    for k in range(1, k_max + 1):
        if k > len(basis):  # grown in blocks: memory follows the steps taken
            block = np.empty((min(_BASIS_BLOCK, k_max - len(basis)), n), np.complex128)
            basis = np.concatenate([basis, block])
        basis[k - 1] = q
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is caught below
            w = gram_apply(q.reshape(shape)).ravel()
        if not math.isfinite(np.linalg.norm(w)):
            return PowerIterationResult(math.inf, k, False)
        # divide by the computed |q|^2 so that the identity gives exactly 1
        alphas.append(np.vdot(q, w).real / np.vdot(q, q).real)
        done = basis[:k]
        for _ in range(2):  # classical Gram-Schmidt against the whole basis
            w = w - (done @ w.conj()).conj() @ done
        beta = float(np.linalg.norm(w))
        evals, evecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = max(float(evals[-1]), 0.0)
        if beta * abs(evecs[-1, -1]) <= tol * theta or k == n:
            return PowerIterationResult(math.sqrt(theta), k, True)
        betas.append(beta)
        q = w / beta
    return PowerIterationResult(math.sqrt(theta), k_max, False)


def spectral_norm_power(
    a,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    seed: int = 0,
) -> PowerIterationResult:
    """Largest singular value by :func:`gram_lanczos` on A*A.

    The zero matrix short-circuits to 0.  Non-convergence within
    ``max_iter`` is reported through the ``converged`` flag; the last
    estimate is still returned.
    """
    a = as_cmatrix(a)
    if a.size == 0 or not np.any(a):
        return PowerIterationResult(0.0, 0, True)
    a_h = a.conj().T
    return gram_lanczos(lambda v: a_h @ (a @ v), a.shape[1], tol, max_iter, seed)


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
    Lanczos path.
    """
    emb = real_embedding(a)
    if emb.size == 0:
        return 0.0
    return float(np.linalg.svd(emb, compute_uv=False)[0])
