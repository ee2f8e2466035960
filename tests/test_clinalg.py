import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab.clinalg import (
    as_cmatrix,
    frobenius_norm,
    pq_norm,
    pq_norm_in_row_blocks,
    real_embedding,
    spectral_norm_oracle,
    spectral_norm_power,
)

from conftest import random_complex


def complex_matrices(max_dim=8, scale=3.0):
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 2**31 - 1)
    ).map(
        lambda t: random_complex(np.random.default_rng(t[2]), t[0], t[1], scale=scale)
    )


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_modulus(self):
        assert frobenius_norm([[3 + 4j]]) == pytest.approx(5.0, rel=1e-15)

    def test_against_modulus_matrix(self, rng):
        a = random_complex(rng, 5, 5)
        real_frob = float(np.sqrt(np.sum(np.abs(a) ** 2)))
        assert frobenius_norm(a) == pytest.approx(real_frob, rel=1e-13)


class TestPqNorm:
    def test_identity_21(self):
        assert pq_norm(np.eye(2), 2, 1) == pytest.approx(2.0, rel=1e-15)

    def test_hand_case(self):
        assert pq_norm([[3, 0], [4, 0]], 2, 1) == pytest.approx(5.0, rel=1e-15)

    def test_22_equals_frobenius(self, rng):
        a = random_complex(rng, 4, 6)
        assert pq_norm(a, 2, 2) == pytest.approx(frobenius_norm(a), rel=1e-13)

    def test_inf_q(self, rng):
        a = random_complex(rng, 4, 6)
        cols = np.sqrt(np.sum(np.abs(a) ** 2, axis=0))
        assert pq_norm(a, 2, math.inf) == pytest.approx(float(cols.max()), rel=1e-13)

    def test_through_modulus_matrix(self, rng):
        a = random_complex(rng, 4, 4)
        mods = np.abs(a)
        assert pq_norm(a, 2, 1) == pytest.approx(pq_norm(mods, 2, 1), rel=1e-13)


    def test_finite_matrix_beyond_square_range(self):
        # squaring 1.4e160 overflows; the column scaling keeps b finite
        a = np.full((2, 2), 1e160 + 1e160j)
        assert pq_norm(a, 2, 1) == pytest.approx(4e160, rel=1e-15)
        assert pq_norm(np.full((2, 2), 1e-170 + 0j), 2, 2) == pytest.approx(2e-170, rel=1e-15)

    def test_21_bits_equal_unscaled_formula(self, rng):
        # the power-of-two scaling is exact, so analysis reports keep their digits
        for scale in (1e-3, 1.0, 37.0):
            a = scale * random_complex(rng, 9, 7)
            mods = np.abs(a)
            assert pq_norm(a, 2, 1) == float(np.sum(np.sum(mods**2, axis=0) ** 0.5))


class TestPqNormInBlocks:
    """pq_norm forms its moduli in blocks with the bytes of the one-shot
    formula, the oracle here: numpy's column sum of the whole modulus
    matrix, pairwise down a single column or a column-major layout and row
    after row otherwise."""

    @staticmethod
    def _one_shot(a, p, q):
        def p_norms(mods, p):  # each column scaled by the power of two at its top
            if mods.shape[0] == 0:
                return np.zeros(mods.shape[1])
            top = mods.max(axis=0)
            if math.isinf(p):
                return top
            exp = np.maximum(np.frexp(top)[1], -1022)
            mods *= np.ldexp(1.0, -exp)
            mods **= p
            return np.ldexp(np.sum(mods, axis=0) ** (1.0 / p), exp)

        cols = p_norms(np.abs(as_cmatrix(a)), p)
        return float(p_norms(cols[:, None], q)[0])

    @pytest.mark.parametrize("shape", [(3000, 40), (40, 3000), (70000, 2), (1, 5000),
                                       (5000, 1), (1, 1), (0, 3), (3, 0)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("scale", [1e-310, 1e300])
    def test_bytes_equal_the_one_shot_formula(self, shape, scale):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        a = scale * (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
                     + 1j * rng.standard_normal(shape))
        # the layouts analyze hands in (a lowering, a transposed weight),
        # and strided views of both
        for view in (a, a.T, a[::2, ::-1], a.T[::-1, ::3]):
            for p in (1, 2, 3, math.inf):
                for q in (1, 2, math.inf):
                    assert pq_norm(view, p, q) == self._one_shot(view, p, q), (view.shape, p, q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    @pytest.mark.parametrize("shape", [(3000, 40), (40, 3000), (5000, 1)],
                             ids=lambda s: "x".join(map(str, s)))
    def test_non_finite_entries_raise(self, bad, shape):
        a = np.ones(shape, dtype=np.complex128)
        a[-1, -1] = bad  # in the last block
        for view in (a, a.T):
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                pq_norm(view, 2, 1)

    def test_memory_is_a_block_not_a_copy(self):
        # the one-shot modulus matrix of this 32 MiB input is 16 MiB, and
        # the one-shot formula peaked at 16.1 MiB
        a = random_complex(np.random.default_rng(3), 2048, 1024)
        tracemalloc.start()
        try:
            pq_norm(a, 2, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestPqNormInRowBlocks:
    """pq_norm of a matrix read from row blocks a caller yields has the bytes
    of pq_norm on the whole matrix, for any partition into row blocks."""

    @staticmethod
    def blocks_of(a, cuts):
        return lambda: (a[lo:hi] for lo, hi in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("shape", [(1700, 40), (200, 7), (9, 2), (1, 5000)],
                             ids=lambda s: "x".join(map(str, s)))
    @pytest.mark.parametrize("scale", [1e-310, 1e-300, 1.0, 1e300])
    def test_bytes_equal_pq_norm_for_any_partition(self, shape, scale):
        rng = np.random.default_rng(shape[0] * 7 + shape[1])
        a = scale * (rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
                     + 1j * rng.standard_normal(shape))
        n = shape[0]
        partitions = [{0, n}, set(range(n + 1)), {0, 1, n}, {0, n - 1, n}]
        partitions += [{0, n, *rng.choice(np.arange(1, n), k, replace=False)}
                       for k in (2, 9) if n > k]
        for cuts in map(sorted, partitions):
            for p in (1, 2, 3, math.inf):
                for q in (1, 2, math.inf):
                    got = pq_norm_in_row_blocks(self.blocks_of(a, cuts), p, q)
                    assert got == pq_norm(a, p, q), (len(cuts), p, q)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entry_in_the_last_block_raises_as_pq_norm(self, bad):
        a = np.ones((300, 40), dtype=np.complex128)
        a[-1, -1] = bad
        with pytest.raises(ValueError) as whole:
            pq_norm(a, 2, 1)
        with pytest.raises(ValueError) as blocks:
            pq_norm_in_row_blocks(self.blocks_of(a, [0, 100, 200, 300]), 2, 1)
        assert str(blocks.value) == str(whole.value) == "matrix entries must be finite"

    def test_exponents_below_one_are_refused(self):
        with pytest.raises(ValueError, match="p and q must be >= 1"):
            pq_norm_in_row_blocks(self.blocks_of(np.ones((2, 2)), [0, 2]), 0.5, 1)


class TestRealEmbedding:
    def test_rotation(self):
        npt.assert_array_equal(real_embedding([[1j]]), [[0.0, -1.0], [1.0, 0.0]])

    def test_identity(self):
        npt.assert_array_equal(real_embedding(np.eye(2)), np.eye(4))

    def test_product_embeds_as_product(self, rng):
        a = random_complex(rng, 3, 3)
        b = random_complex(rng, 3, 3)
        emb = real_embedding(a) @ real_embedding(b)
        npt.assert_allclose(real_embedding(a @ b), emb, atol=1e-12)

    def test_norm_preserved(self, rng):
        a = random_complex(rng, 8, 8)
        sa = spectral_norm_power(a, seed=1).value
        se = spectral_norm_power(real_embedding(a), seed=2).value
        assert abs(sa - se) <= 1e-10 * max(sa, 1.0)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm_power(np.eye(3)).value == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm_power(np.diag([3.0, 1.0])).value == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix_short_circuits(self):
        res = spectral_norm_power(np.zeros((4, 4)))
        assert res.value == 0.0 and res.converged and res.iterations == 0

    def test_against_oracle(self, rng):
        for i in range(40):
            r, c = rng.integers(2, 33, size=2)
            a = random_complex(rng, r, c)
            pi = spectral_norm_power(a, seed=i).value
            ref = spectral_norm_oracle(a)
            assert abs(pi - ref) <= 1e-8 * ref

    def test_nonconvergence_flagged(self, rng):
        a = random_complex(rng, 8, 8)
        res = spectral_norm_power(a, max_iter=1)
        assert not res.converged
        assert res.value > 0.0

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-6])
    def test_small_top_gap(self, gap):
        # power iteration needs ~1/gap steps here and can stall while
        # looking converged; Lanczos needs ~1/sqrt(gap)
        rng = np.random.default_rng(7)
        u, _ = np.linalg.qr(random_complex(rng, 32, 32))
        v, _ = np.linalg.qr(random_complex(rng, 32, 32))
        s = np.linspace(0.9, 0.1, 32)
        s[:2] = 1.0, 1.0 - gap
        a = u @ np.diag(s) @ v.conj().T
        res = spectral_norm_power(a)
        assert res.converged
        oracle = spectral_norm_oracle(a)
        assert abs(res.value - oracle) <= 1e-10 * oracle

    def test_krylov_dimension_capped_at_size(self, rng):
        # 3 steps span the whole space, so the result is exact and converged
        # whatever max_iter allows
        a = random_complex(rng, 5, 3)
        res = spectral_norm_power(a, max_iter=50)
        assert res.converged and res.iterations == 3
        assert abs(res.value - spectral_norm_oracle(a)) <= 1e-12 * res.value

    def test_overflow_is_not_a_silent_zero(self):
        # ||A*A v||^2 overflows: the iterate must not pass for a null vector
        with np.errstate(all="ignore"):
            res = spectral_norm_power(np.full((4, 4), 1e77))
        assert res.value == math.inf and not res.converged


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_cmatrix([[np.nan]])

    def test_rejects_vector(self):
        with pytest.raises(ValueError, match="2-D"):
            as_cmatrix([1.0, 2.0])


@settings(max_examples=40, deadline=None)
@given(complex_matrices())
def test_norm_inequality_chain(a):
    s = spectral_norm_oracle(a)
    f = frobenius_norm(a)
    k = math.sqrt(min(a.shape))
    assert s <= f * (1 + 1e-10)
    assert f <= k * s * (1 + 1e-10)


@settings(max_examples=30, deadline=None)
@given(complex_matrices())
def test_spectral_norm_transpose_invariant(a):
    sa = spectral_norm_power(a, seed=0).value
    sh = spectral_norm_power(a.conj().T, seed=1).value
    assert abs(sa - sh) <= 1e-8 * max(sa, 1e-12)


@settings(max_examples=30, deadline=None)
@given(complex_matrices(), st.integers(0, 2**31 - 1))
def test_operator_norm_definition(a, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
    norm_v = np.linalg.norm(v)
    if norm_v == 0:
        return
    v = v / norm_v
    s = spectral_norm_power(a, seed=0).value
    assert np.linalg.norm(a @ v) <= s * (1 + 1e-8) + 1e-12
