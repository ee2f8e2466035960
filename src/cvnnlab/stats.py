"""Excess risk and Spearman rank-order correlation for training traces.

The correlation protocol ranks both series with midrank tie handling and
takes the Pearson correlation of the ranks.  Two-sided p-values come from
the exact permutation distribution up to n = EXACT_ENUM_MAX, an integer
count over all n! orderings that a dynamic program over subsets builds in
2^n histograms, and beyond that from the Student-t approximation
t = r sqrt((n-2)/(1-r^2)) with n-2 degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ConstantInputError",
    "SpearmanResult",
    "TrainingTrace",
    "spearman",
    "excess_risk",
    "correlate_trace",
]

EXACT_ENUM_MAX = 10  # exact p-values up to here: 2^n histograms


class ConstantInputError(ValueError):
    """A sequence with zero rank variance has no defined correlation."""


def average_ranks(x) -> np.ndarray:
    """1-based ranks with ties replaced by their average (midranks)."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # the 1-based rank of each distinct value's last copy
    return (ends - (counts - 1) / 2.0)[inverse]


def pearson(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(np.sum(xc**2)) * float(np.sum(yc**2)))
    if denom == 0.0:
        raise ConstantInputError("zero variance input")
    return float(np.sum(xc * yc) / denom)


@dataclass(frozen=True)
class SpearmanResult:
    scc: float
    p: float


def _t_approx_p(rho: float, n: int) -> float:
    if abs(rho) >= 1.0:
        # degenerate perfect correlation: the t statistic diverges
        return float(np.nextafter(0.0, 1.0))
    from scipy.special import stdtr  # here, not at module load: its import takes ~0.3 s

    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    # two-sided tail of Student-t with n-2 degrees of freedom
    return float(2.0 * stdtr(n - 2, -abs(t)))


def _exact_permutation_p(rx: np.ndarray, ry: np.ndarray) -> float:
    """Two-sided permutation p: the share of the n! orderings of the y ranks
    whose |T| is at least the observed one.

    Pearson on ranks is monotone in T = sum(a_i * b_pi(i)) over the doubled
    centred midranks a = 2 rx - (n+1), b = 2 ry - (n+1), because rank means
    and variances are permutation-invariant.  ``counts[mask, T + top]`` is
    the number of ways to pair the first popcount(mask) x positions with
    the y positions in ``mask`` at partial sum T, so the full mask holds the
    integer histogram of T.
    """
    n = len(rx)
    a = np.rint(2.0 * rx).astype(np.int64) - (n + 1)
    b = np.rint(2.0 * ry).astype(np.int64) - (n + 1)
    top = int(np.sort(np.abs(a)) @ np.sort(np.abs(b)))  # |T| <= top (rearrangement)
    width = 2 * top + 1
    counts = np.zeros((1 << n, width), dtype=np.int64)
    counts[0, top] = 1
    level = np.array([bin(mask).count("1") for mask in range(1 << n)])
    for i in range(n):
        rows = np.flatnonzero(level == i)
        for j in range(n):
            src = rows[(rows >> j) & 1 == 0]
            shift = int(a[i] * b[j])
            lo, hi = max(shift, 0), width + min(shift, 0)
            counts[src | (1 << j), lo:hi] += counts[src, lo - shift : hi - shift]
    stat = np.arange(width) - top
    hits = int(counts[-1][np.abs(stat) >= abs(int(a @ b))].sum())
    return hits / math.factorial(n)


def spearman(x, y, p_method: str = "auto") -> SpearmanResult:
    """Spearman rank correlation with a two-sided p-value.

    ``p_method``: "exact" (exact permutation distribution), "t"
    (Student-t approximation), or "auto" (exact up to EXACT_ENUM_MAX).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length 1-D sequences")
    n = x.shape[0]
    if n < 3:
        raise ValueError("need at least 3 observations")
    if np.isnan(x).any() or np.isnan(y).any():  # nan has no rank; +-inf ranks as an extreme
        raise ValueError("x and y must not contain nan")
    rx = average_ranks(x)
    ry = average_ranks(y)
    try:
        rho = pearson(rx, ry)
    except ConstantInputError:
        raise ConstantInputError(
            "constant sequence: correlation undefined"
        ) from None
    if p_method == "auto":
        p_method = "exact" if n <= EXACT_ENUM_MAX else "t"
    if p_method == "exact":
        if n > EXACT_ENUM_MAX:
            raise ValueError(
                f"exact enumeration of {n}! permutations is not feasible"
            )
        p = _exact_permutation_p(rx, ry)
    elif p_method == "t":
        p = _t_approx_p(rho, n)
    else:
        raise ValueError(f"unknown p_method {p_method!r}")
    return SpearmanResult(scc=rho, p=p)


def excess_risk(train_acc: float, test_acc: float) -> float:
    """Generalization gap: training accuracy minus test accuracy.

    With training error near zero this collapses to the test error.
    """
    if not 0.0 <= train_acc <= 1.0 or not 0.0 <= test_acc <= 1.0:
        raise ValueError("accuracies must lie in [0, 1]")
    return train_acc - test_acc


@dataclass
class TrainingTrace:
    """Epoch-indexed series a training run emits; arrays share one length.

    ``r_a`` entries are NaN where a row was recorded in sn-product-only
    mode; ``layer_norms`` holds one list of per-layer spectral norms per
    epoch (possibly empty).
    """

    epoch: np.ndarray
    train_loss: np.ndarray
    train_acc: np.ndarray
    test_acc: np.ndarray
    excess_risk: np.ndarray
    sn_product: np.ndarray
    r_a: np.ndarray
    layer_norms: list

    def __post_init__(self):
        n = len(self.epoch)
        for f in fields(self):
            if len(getattr(self, f.name)) != n:
                raise ValueError(f"column {f.name} length mismatch")
        if n > 1 and np.any(np.diff(self.epoch) <= 0):
            raise ValueError("epochs must be strictly increasing")


def correlate_trace(trace: TrainingTrace) -> SpearmanResult:
    """Spearman correlation of the spectral-norm product against excess risk."""
    mask = np.isfinite(trace.sn_product)
    sn = trace.sn_product[mask]
    er = trace.excess_risk[mask]
    if sn.shape[0] < 3:
        raise ValueError("need at least 3 epochs with spectral data")
    return spearman(sn, er)
