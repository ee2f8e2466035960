import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab.clinalg import (
    as_cmatrix,
    frobenius_norm,
    hermitian_transpose,
    pq_norm,
    real_embedding,
    spectral_norm,
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


class TestHermitianTranspose:
    def test_identity(self):
        npt.assert_array_equal(hermitian_transpose(np.eye(2)), np.eye(2))

    def test_pure_imaginary(self):
        npt.assert_array_equal(hermitian_transpose([[1j]]), [[-1j]])

    def test_involution_exact(self, rng):
        a = random_complex(rng, 4, 3)
        npt.assert_array_equal(hermitian_transpose(hermitian_transpose(a)), a)

    def test_entries_conjugated(self, rng):
        a = random_complex(rng, 3, 5)
        h = hermitian_transpose(a)
        for i in range(3):
            for j in range(5):
                assert h[j, i] == np.conj(a[i, j])


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
        sa = spectral_norm(a, seed=1)
        se = spectral_norm(real_embedding(a), seed=2)
        assert abs(sa - se) <= 1e-10 * max(sa, 1.0)


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-12)

    def test_zero_matrix_short_circuits(self):
        res = spectral_norm_power(np.zeros((4, 4)))
        assert res.value == 0.0 and res.converged and res.iterations == 0

    def test_against_oracle(self, rng):
        for i in range(40):
            r, c = rng.integers(2, 33, size=2)
            a = random_complex(rng, r, c)
            pi = spectral_norm(a, seed=i)
            ref = spectral_norm_oracle(a)
            assert abs(pi - ref) <= 1e-8 * ref

    def test_nonconvergence_flagged(self, rng):
        a = random_complex(rng, 8, 8)
        res = spectral_norm_power(a, max_iter=1)
        assert not res.converged
        assert res.value > 0.0

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            spectral_norm_power(np.eye(2), tol=0.0)


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
    sa = spectral_norm(a, seed=0)
    sh = spectral_norm(hermitian_transpose(a), seed=1)
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
    s = spectral_norm(a, seed=0)
    assert np.linalg.norm(a @ v) <= s * (1 + 1e-8) + 1e-12
