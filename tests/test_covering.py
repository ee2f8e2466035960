import itertools
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from cvnnlab.covering import (
    CoverReport,
    MaureyInstance,
    cover_check,
    cover_report_to_text,
    cover_target,
    maurey_expectation_bound,
    maurey_sparsify,
)
from cvnnlab.spectral import covering_bound_linear

from conftest import random_complex


def signed_basis(y, m: int):
    """The 4dm signed basis directions built from a column-normalized matrix.

    For each column index i of ``y`` and output index j < m the basis holds
    +-(y e_i) e_j^T and +-(i * y e_i) e_j^T, ordered real-part block first,
    each block sign-major then (i, j) row-major.  With unit 2-norm columns
    every element has unit norm.  Dense oracle for the implicit basis of
    ``cover_target``.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 2:
        raise ValueError("y must be a matrix")
    col_norms = np.sqrt(np.sum(np.abs(y) ** 2, axis=0))
    if np.any(np.abs(col_norms - 1.0) > 1e-9):
        raise ValueError("columns of y must have unit norm")
    n, d = y.shape
    basis = []
    for unit in (1.0, 1.0j):
        for sign in (1.0, -1.0):
            for i in range(d):
                col = sign * unit * y[:, i]
                for j in range(m):
                    v = np.zeros((n, m), dtype=np.complex128)
                    v[:, j] = col
                    basis.append(v)
    return basis


def brute_force_best(inst: MaureyInstance) -> float:
    """Exhaustive minimum over all compositions of k into N parts."""
    n = len(inst.elements)
    flat = np.stack([np.asarray(e, dtype=complex).ravel() for e in inst.elements])
    f = inst.weights @ flat
    best = math.inf
    for comp in itertools.product(range(inst.k + 1), repeat=n):
        if sum(comp) != inst.k:
            continue
        approx = (inst.alpha / inst.k) * (np.asarray(comp, dtype=float) @ flat)
        best = min(best, float(np.linalg.norm(approx - f)))
    return best


def random_instance(rng, max_elements=8, max_k=12):
    n_el = int(rng.integers(2, max_elements))
    shape = tuple(rng.integers(2, 5, size=2))
    elements = tuple(
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(n_el)
    )
    weights = rng.uniform(0.1, 2.0, size=n_el)
    k = int(rng.integers(1, max_k))
    return MaureyInstance(elements=elements, weights=weights, k=k)


class TestMaureySparsify:
    def test_single_element_exact(self, rng):
        g = random_complex(rng, 3, 3)
        inst = MaureyInstance(elements=(g,), weights=np.array([2.5]), k=7)
        res = maurey_sparsify(inst, trials=4, seed=0)
        assert res.error == 0.0
        assert res.counts.tolist() == [7]
        npt.assert_allclose(res.approximant, 2.5 * g)

    def test_counts_always_sum_to_k(self, rng):
        for i in range(20):
            inst = random_instance(rng)
            res = maurey_sparsify(inst, trials=16, seed=i)
            assert int(res.counts.sum()) == inst.k

    def test_orthogonal_pair_matches_enumeration(self):
        g1 = np.zeros((2, 2), complex)
        g1[0, 0] = 1.0
        g2 = np.zeros((2, 2), complex)
        g2[1, 1] = 1.0
        inst = MaureyInstance(elements=(g1, g2), weights=np.array([0.5, 0.5]), k=1)
        res = maurey_sparsify(inst, trials=64, seed=3)
        assert res.error == pytest.approx(brute_force_best(inst), rel=1e-12)
        assert res.error == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_sampled_never_beats_enumeration(self, rng):
        for i in range(10):
            inst = random_instance(rng, max_elements=5, max_k=6)
            res = maurey_sparsify(inst, trials=32, seed=100 + i)
            assert res.error >= brute_force_best(inst) - 1e-12

    def test_markov_ceiling_best_of_64(self, rng):
        for i in range(30):
            inst = random_instance(rng)
            res = maurey_sparsify(inst, trials=64, seed=200 + i)
            assert res.error**2 <= 2.0 * maurey_expectation_bound(inst)

    def test_mean_error_decreases_with_budget(self, rng):
        small, large = [], []
        for i in range(50):
            n_el = int(rng.integers(3, 8))
            shape = (3, 3)
            elements = tuple(
                rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(n_el)
            )
            weights = rng.uniform(0.1, 2.0, size=n_el)
            k = int(rng.integers(2, 8))
            inst_k = MaureyInstance(elements=elements, weights=weights, k=k)
            inst_4k = MaureyInstance(elements=elements, weights=weights, k=4 * k)
            small.append(maurey_sparsify(inst_k, trials=64, seed=300 + i).error)
            large.append(maurey_sparsify(inst_4k, trials=64, seed=300 + i).error)
        assert float(np.mean(large)) < float(np.mean(small))

    def test_instance_validation(self, rng):
        g = random_complex(rng, 2, 2)
        with pytest.raises(ValueError):
            MaureyInstance(elements=(g,), weights=np.array([0.0]), k=3)
        with pytest.raises(ValueError):
            MaureyInstance(elements=(g,), weights=np.array([-1.0]), k=3)
        with pytest.raises(ValueError):
            MaureyInstance(elements=(g, random_complex(rng, 3, 3)), weights=np.array([1.0, 1.0]), k=3)
        with pytest.raises(ValueError):
            MaureyInstance(elements=(g,), weights=np.array([1.0]), k=0)


class TestBasis:
    def test_smallest_case_enumerates_four(self):
        y = np.array([[1.0], [0.0]], dtype=complex)
        basis = signed_basis(y, 1)
        assert len(basis) == 4
        flat = [tuple(b.ravel()) for b in basis]
        assert (1 + 0j, 0j) in flat
        assert (-1 + 0j, 0j) in flat
        assert (1j, 0j) in flat
        assert (-1j, 0j) in flat

    def test_cardinality_4dm(self, rng):
        for d, m in ((2, 3), (3, 2), (4, 4)):
            z = random_complex(rng, 5, d)
            y = z / np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
            assert len(signed_basis(y, m)) == 4 * d * m

    def test_unit_norm_elements(self, rng):
        z = random_complex(rng, 6, 3)
        y = z / np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
        for v in signed_basis(y, 4):
            assert np.linalg.norm(v) <= 1.0 + 1e-12

    def test_rejects_unnormalized(self, rng):
        with pytest.raises(ValueError, match="unit norm"):
            signed_basis(random_complex(rng, 4, 3) * 5.0, 2)


class TestCoverCheck:
    def pinned_report(self, rng) -> CoverReport:
        z = math.sqrt(0.5) * (
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        )
        return cover_check(z, a=1.0, eps=0.5, n_samples=50, trials=64, seed=7, m=2)

    def test_pinned_instance_coverage(self, rng):
        rep = self.pinned_report(rng)
        assert rep.achieved_error <= math.sqrt(2.0) * rep.eps
        assert rep.frac_within_eps >= 0.9

    def test_distinct_points_within_ln_bound(self, rng):
        rep = self.pinned_report(rng)
        assert math.log(rep.distinct_cover_points_used) <= rep.bound_ln_cover

    def test_report_fields(self, rng):
        z = math.sqrt(0.5) * (
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        )
        rep = cover_check(z, a=1.0, eps=0.5, n_samples=5, trials=16, seed=1, m=2)
        b = float(np.sqrt(np.sum(np.abs(z) ** 2)))
        assert rep.k == math.ceil(b * b / 0.25)
        assert rep.bound_ln_cover == pytest.approx(
            covering_bound_linear(1.0, b, 2, math.inf, 0.5, 2), rel=1e-12
        )
        assert rep.theoretical_error <= rep.eps + 1e-12

    def test_zero_weight_matrix_covered_trivially(self, rng):
        z = math.sqrt(0.5) * (
            rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        )
        error, counts = cover_target(z, np.zeros((2, 2), complex), k=10, trials=4, seed=0)
        assert error == 0.0
        assert counts.sum() == 0

    def test_decomposition_reconstructs_exactly(self, rng):
        z = random_complex(rng, 4, 3)
        raw = random_complex(rng, 3, 2)
        from cvnnlab.clinalg import pq_norm

        a_mat = raw * (1.0 / pq_norm(raw, 2, 1))
        # cover_target raises AssertionError when the reconstruction drifts
        # beyond 1e-10; a clean pass is the exactness check
        error, counts = cover_target(z, a_mat, k=50, trials=8, seed=5)
        assert error >= 0.0
        assert counts.sum() == 50

    @pytest.mark.parametrize(
        "d, m, n, k, seed", [(1, 1, 2, 3, 0), (2, 3, 4, 7, 1), (3, 2, 5, 40, 2), (4, 4, 6, 13, 3)]
    )
    def test_matches_dense_basis_sparsification(self, d, m, n, k, seed):
        rng = np.random.default_rng(seed)
        z = random_complex(rng, n, d)
        a_mat = random_complex(rng, d, m)
        col_norms = np.sqrt(np.sum(np.abs(z) ** 2, axis=0))
        s = col_norms[:, None] * a_mat
        weights = np.concatenate(
            [np.maximum(part, 0.0).ravel() for part in (s.real, -s.real, s.imag, -s.imag)]
        )
        inst = MaureyInstance(signed_basis(z / col_norms, m), weights, k)
        npt.assert_allclose(inst.target(), z @ a_mat, rtol=1e-12, atol=1e-12)
        ref = maurey_sparsify(inst, trials=16, seed=seed)
        error, counts = cover_target(z, a_mat, k, trials=16, seed=seed)
        npt.assert_array_equal(counts, ref.counts)
        assert error == pytest.approx(ref.error, rel=1e-12)

    def test_peak_memory_bounded(self):
        # materialising the 4dm-element basis takes about 400 MiB at this size
        rng = np.random.default_rng(0)
        z = math.sqrt(0.5) * (rng.standard_normal((64, 32)) + 1j * rng.standard_normal((64, 32)))
        tracemalloc.start()
        try:
            cover_check(z, a=1.0, eps=0.5, n_samples=2, trials=64, seed=0, m=32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_mass_cap_violation_detected(self, rng):
        z = random_complex(rng, 3, 2)
        raw = random_complex(rng, 2, 2)
        from cvnnlab.clinalg import pq_norm

        a_mat = raw * (1.0 / pq_norm(raw, 2, 1))
        with pytest.raises(AssertionError, match="mass"):
            cover_target(z, a_mat, k=10, trials=4, seed=0, alpha_cap=1e-9)

    def test_rejects_bad_inputs(self, rng):
        z = random_complex(rng, 3, 2)
        with pytest.raises(ValueError):
            cover_check(np.zeros((3, 2)), 1.0, 0.5, 1, 4)
        with pytest.raises(ValueError):
            cover_check(z, -1.0, 0.5, 1, 4)
        with pytest.raises(ValueError):
            cover_check(z, 1.0, 0.0, 1, 4)

    @pytest.mark.parametrize("a, eps", [(math.inf, 0.5), (1e200, 1e-200), (math.nan, 0.5)])
    def test_count_beyond_floats_raises(self, rng, a, eps):
        with pytest.raises(ValueError):
            cover_check(random_complex(rng, 3, 2), a, eps, 2, 4, m=2)

    def test_serialization_contains_fields(self, rng):
        rep = cover_check(random_complex(rng, 3, 2), 1.0, 0.5, 5, 8, seed=2, m=2)
        text = cover_report_to_text(rep)
        for key in ("achieved_error", "frac_within_eps", "distinct_cover_points_used", "bound_ln_cover"):
            assert key in text
        assert text.startswith("format = cover-report-v1\n")

    def test_serialization_golden_text(self):
        rep = CoverReport(
            d=3, m=2, n=4, a=1.0, eps=0.5, r=math.inf, k=37, trials=8, samples=5,
            achieved_error=0.1, theoretical_error=0.25, frac_within_eps=1.0,
            distinct_cover_points_used=5, bound_ln_cover=12.5,
        )
        assert cover_report_to_text(rep) == (
            "format = cover-report-v1\n"
            "d = 3\n"
            "m = 2\n"
            "n = 4\n"
            "a = 1\n"
            "eps = 0.5\n"
            "r = inf\n"
            "k = 37\n"
            "trials = 8\n"
            "samples = 5\n"
            "achieved_error = 0.10000000000000001\n"
            "theoretical_error = 0.25\n"
            "frac_within_eps = 1\n"
            "distinct_cover_points_used = 5\n"
            "bound_ln_cover = 12.5\n"
        )

    def test_rejects_zero_column(self, rng):
        z = random_complex(rng, 3, 2)
        z[:, 1] = 0.0
        with pytest.raises(ValueError, match="z must have no zero column"):
            cover_check(z, 1.0, 0.5, 1, 4)
