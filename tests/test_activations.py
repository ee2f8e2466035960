import math

import numpy as np
import numpy.testing as npt
import pytest

from cvnnlab.activations import (
    AMP_TANH,
    CRELU,
    SPLIT_TANH,
    Activation,
    apply,
    backprop,
    jacobian_fields,
    lipschitz_probe,
)

ALL_KINDS = [SPLIT_TANH, CRELU, Activation("modrelu", b=-0.5), AMP_TANH]


def jacobian(act, z):
    """2x2 real Jacobian at a scalar point, from the vectorized fields."""
    return np.array(jacobian_fields(act, complex(z)), dtype=float).reshape(2, 2)


def fd_jacobian(act, z, h=1e-6):
    """Central finite differences of (Re out, Im out) w.r.t. (Re in, Im in)."""
    j = np.zeros((2, 2))
    for col, dz in enumerate((h, 1j * h)):
        fp = apply(act, z + dz)
        fm = apply(act, z - dz)
        j[0, col] = (fp.real - fm.real) / (2 * h)
        j[1, col] = (fp.imag - fm.imag) / (2 * h)
    return j


def saved(act, z):
    """What :func:`backprop` reads: the output of a diagonal kind, else z."""
    return apply(act, z) if act.diagonal else z


def sample_differentiable(act, rng, margin=1e-3):
    while True:
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        r = abs(z)
        if act.kind == "crelu" and (abs(z.real) < margin or abs(z.imag) < margin):
            continue
        if act.kind == "modrelu" and (abs(r + act.b) < margin or r < margin):
            continue
        if act.kind == "amp_tanh" and r < margin:
            continue
        return z


class TestApply:
    def test_crelu_example(self):
        assert apply(CRELU, 1 - 2j) == 1 + 0j

    def test_split_tanh_zero(self):
        assert apply(SPLIT_TANH, 0j) == 0j

    def test_modrelu_hand_value(self):
        # (|2| - 1) * (2/2) = 1
        assert apply(Activation("modrelu", b=-1.0), 2 + 0j) == pytest.approx(1 + 0j)

    @pytest.mark.parametrize("act", ALL_KINDS)
    def test_zero_maps_to_zero(self, act):
        assert apply(act, 0j) == 0j

    def test_modrelu_dead_zone(self, rng):
        act = Activation("modrelu", b=-1.5)
        z = 0.9 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=50))
        out = apply(act, z)
        npt.assert_array_equal(out, np.zeros_like(out))

    def test_amp_tanh_preserves_phase(self, rng):
        z = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        out = apply(AMP_TANH, z)
        dphase = np.angle(out) - np.angle(z)
        npt.assert_allclose(dphase, 0.0, atol=1e-12)

    def test_modrelu_preserves_phase_where_active(self, rng):
        act = Activation("modrelu", b=-0.5)
        z = 2.0 * np.exp(1j * rng.uniform(0, 2 * np.pi, size=100))
        out = apply(act, z)
        npt.assert_allclose(np.angle(out), np.angle(z), atol=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Activation("relu")

    @pytest.mark.parametrize("b", [0.5, 5e-324, math.inf, -math.inf, math.nan])
    def test_modrelu_threshold_must_be_finite_and_not_positive(self, b):
        # b > 0 jumps at 0: no Lipschitz constant, so no bound applies
        with pytest.raises(ValueError, match="modrelu threshold must be finite and <= 0"):
            Activation("modrelu", b=b)
        assert Activation("modrelu", b=-0.0).b == 0.0 and Activation("modrelu", b=-1e300).b == -1e300


class TestJacobian:
    def test_split_tanh_at_zero(self):
        npt.assert_allclose(jacobian(SPLIT_TANH, 0j), np.eye(2))

    def test_crelu_active_region(self):
        npt.assert_array_equal(jacobian(CRELU, 1 + 1j), np.eye(2))

    def test_crelu_subgradient_rows(self):
        j = jacobian(CRELU, -1 + 1j)
        npt.assert_array_equal(j, np.diag([0.0, 1.0]))

    def test_amp_tanh_at_zero(self):
        npt.assert_allclose(jacobian(AMP_TANH, 0j), np.eye(2))

    @pytest.mark.parametrize("act", ALL_KINDS)
    def test_matches_finite_differences(self, act, rng):
        worst = 0.0
        for _ in range(1000):
            z = sample_differentiable(act, rng)
            ana = jacobian(act, z)
            num = fd_jacobian(act, z)
            denom = max(1.0, float(np.abs(num).max()))
            worst = max(worst, float(np.abs(ana - num).max()) / denom)
        assert worst <= 1e-6

    def test_fields_vectorized_consistent(self, rng):
        z = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        for act in ALL_KINDS:
            j_rr, j_ri, j_ir, j_ii = jacobian_fields(act, z)
            for i in range(20):
                expected = jacobian(act, complex(z[i]))
                got = np.array([[j_rr[i], j_ri[i]], [j_ir[i], j_ii[i]]])
                npt.assert_allclose(got, expected, atol=1e-14)

    def test_backprop_is_jacobian_transpose(self, rng):
        z = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        g = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for act in ALL_KINDS:
            out = backprop(act, saved(act, z), g)
            for i in range(10):
                j = jacobian(act, complex(z[i]))
                ref = j.T @ np.array([g[i].real, g[i].imag])
                npt.assert_allclose([out[i].real, out[i].imag], ref, atol=1e-13)


def _formula_apply(act, z):
    """Coordinatewise value of the two diagonal kinds, part by part."""
    f = np.tanh if act.kind == "split_tanh" else (lambda t: np.maximum(t, 0.0))
    return f(z.real) + 1j * f(z.imag)


def _formula_backprop(act, z, g):
    """J^T g from the four Jacobian fields."""
    j_rr, j_ri, j_ir, j_ii = jacobian_fields(act, z)
    g_re, g_im = np.real(g), np.imag(g)
    return (g_re * j_rr + g_im * j_ir) + 1j * (g_re * j_ri + g_im * j_ii)


def _bits(x):
    """Bit pattern with -0.0 folded onto +0.0 (x + 0.0 changes nothing else):
    the part formulas add zero terms whose sign varies."""
    return (np.asarray(x, dtype=np.complex128) + 0.0).tobytes()


class TestDiagonalPaths:
    """split_tanh and crelu run on the float64 (re, im) view, never through
    jacobian_fields, and agree with the Jacobian formula bit for bit."""

    @staticmethod
    def _cases(rng):
        edge = np.array([0.0, -0.0, 1e-300, -1e-300, 0.5, -2.0])
        z_axes = np.empty(edge.size**2, dtype=np.complex128)  # set by part: keeps -0.0
        z_axes.real, z_axes.imag = np.repeat(edge, edge.size), np.tile(edge, edge.size)
        z = np.concatenate([z_axes, rng.standard_normal(40) + 1j * rng.standard_normal(40)])
        g = rng.standard_normal(z.size) + 1j * rng.standard_normal(z.size)
        g[:6] = [0j, complex(-0.0, -0.0), 1.0, -1j, complex(0.0, -0.0), 2 - 3j]
        block = np.stack([z[:48].reshape(6, 8)] * 2, axis=-1)  # (6, 8, 2)
        gblock = np.stack([g[:48].reshape(6, 8)] * 2, axis=-1)
        return [
            (z, g),
            (block[:, ::3, 1], gblock[:, ::3, 0]),  # non-contiguous slices
            (np.asarray(z[7]), np.asarray(g[7])),  # 0-d
        ]

    @pytest.mark.parametrize("act", [CRELU, SPLIT_TANH])
    def test_match_jacobian_formula_bitwise(self, act, rng, monkeypatch):
        from cvnnlab import activations

        cases = self._cases(rng)
        want = [(_formula_apply(act, z), _formula_backprop(act, z, g)) for z, g in cases]

        def refuse(*args):
            raise AssertionError("diagonal kinds must not build Jacobian fields")

        monkeypatch.setattr(activations, "jacobian_fields", refuse)
        for (z, g), (want_apply, want_back) in zip(cases, want):
            got_apply = apply(act, z)
            got_back = backprop(act, got_apply, g)
            assert np.shape(got_apply) == np.shape(z) and np.shape(got_back) == np.shape(z)
            assert _bits(got_apply) == _bits(want_apply)
            assert _bits(got_back) == _bits(want_back)
        assert isinstance(apply(act, complex(cases[2][0])), complex)

    @pytest.mark.parametrize("act", [CRELU, SPLIT_TANH])
    def test_output_form_is_the_z_form_bytewise(self, act):
        """backprop from the output has the bytes of the earlier form that
        read z, kept here as the oracle: crelu's g where z > 0, split_tanh's
        g (1 - tanh(z)^2), each on the (re, im) view."""

        def z_form(z, g):
            zf, gf = z.view(np.float64), g.view(np.float64)
            if act.kind == "crelu":
                res = np.bitwise_and(gf.view(np.int64), -(zf > 0.0).view(np.int8))
                return res.view(np.float64)
            return gf * (1.0 - np.tanh(zf) ** 2)

        parts = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300,
                          np.inf, -np.inf, np.nan, -np.nan, 0.75, -3.0])
        g_parts = np.array([1.0, -2.5, -0.0, 0.0, 5e-324, 1e300, -np.inf, np.nan])
        z = np.empty(parts.size**2, dtype=np.complex128)
        z.real, z.imag = np.repeat(parts, parts.size), np.tile(parts, parts.size)
        g = np.empty(z.size, dtype=np.complex128)
        g.real = np.resize(g_parts, z.size)
        g.imag = np.resize(g_parts[::-1], z.size)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and the like
            want = z_form(z, g)
            got = backprop(act, apply(act, z), g)
        assert got.tobytes() == want.tobytes()

    def test_crelu_backprop_is_masked_select_bitwise(self):
        # g passes bit for bit where Re/Im z > 0 (signed zeros, infinities and
        # both signs of nan included) and is +0.0 elsewhere
        g_parts = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -2.5])
        z_parts = np.array([1.0, -1.0, 0.0, -0.0, np.nan, 1e-300, -np.inf, np.inf])
        g = np.empty(64, dtype=np.complex128)
        z = np.empty(64, dtype=np.complex128)
        g.real, g.imag = np.repeat(g_parts, 8), np.tile(g_parts, 8)
        z.real, z.imag = np.tile(z_parts, 8), np.repeat(z_parts[::-1], 8)
        cases = [(z, g), (z.reshape(8, 8)[:, ::3], g.reshape(8, 8)[:, 1::3]), (z[13], g[13])]
        for zc, gc in cases:
            zf = np.ascontiguousarray(zc).reshape(-1).view(np.float64)
            gf = np.ascontiguousarray(gc).reshape(-1).view(np.float64)
            want = np.where(zf > 0.0, gf, 0.0)
            got = backprop(CRELU, zc, gc)
            assert np.shape(got) == np.shape(zc)
            assert np.ascontiguousarray(got).tobytes() == want.tobytes()


class TestDeclaredLipschitz:
    """Every activation is 1-Lipschitz by contract; the constant is tight."""

    def test_split_tanh(self):
        assert np.linalg.norm(jacobian(SPLIT_TANH, 0j), 2) == 1.0

    def test_crelu(self):
        assert np.linalg.norm(jacobian(CRELU, 1 + 1j), 2) == 1.0

    def test_amp_tanh_instantiated(self):
        assert np.linalg.norm(jacobian(AMP_TANH, 0j), 2) == 1.0

    @pytest.mark.parametrize(
        "act",
        [SPLIT_TANH, CRELU, AMP_TANH] + [Activation("modrelu", b=b) for b in (0.0, -0.5, -3.0)],
    )
    def test_declared_covers_jacobian_norm_on_grid(self, act):
        # off the kinks the Lipschitz constant is the sup of the Jacobian's
        # spectral norm; the grid passes within 0.003 of the origin and
        # across every modrelu radius
        t = np.linspace(-6.0, 6.0, 601) + 0.002
        z = (t[:, None] + 1j * t[None, :]).ravel()
        jac = np.stack(jacobian_fields(act, z), axis=-1).reshape(-1, 2, 2)
        worst = float(np.linalg.norm(jac, ord=2, axis=(1, 2)).max())
        assert 0.0 < worst <= 1.0 + 1e-12  # rounding only

    @pytest.mark.parametrize("act", [AMP_TANH, Activation("modrelu", b=-0.5)])
    @pytest.mark.parametrize("alpha", [1.0, 5.0, 50.0])
    def test_probe_under_declared(self, act, alpha):
        assert lipschitz_probe(act, alpha, 50_000, seed=4) <= 1.0 + 1e-12


class TestProbe:
    @pytest.mark.parametrize("act", [SPLIT_TANH, CRELU])
    def test_one_lipschitz_ceiling(self, act):
        est = lipschitz_probe(act, 4.0, 100_000, seed=1)
        assert est <= 1.0 + 1e-12

    def test_crelu_tight(self):
        assert lipschitz_probe(CRELU, 4.0, 100_000, seed=2) >= 0.99

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
    def test_amp_tanh_under_declared(self, alpha):
        est = lipschitz_probe(AMP_TANH, alpha, 50_000, seed=3)
        assert est <= 2.0 * alpha + 1.0

    def test_probe_seed_insensitive_ceiling(self):
        for seed in range(5):
            assert lipschitz_probe(SPLIT_TANH, 3.0, 20_000, seed=seed) <= 1.0 + 1e-12

    def test_probe_validates_args(self):
        with pytest.raises(ValueError):
            lipschitz_probe(SPLIT_TANH, 0.0, 10)
        with pytest.raises(ValueError):
            lipschitz_probe(SPLIT_TANH, 1.0, 0)

    @pytest.mark.parametrize("bound", [math.nan, math.inf, 8.99e307])
    def test_probe_refuses_a_bound_whose_width_is_not_finite(self, bound):
        """uniform(-b, b) needs the width 2b to be finite."""
        with pytest.raises(ValueError):
            lipschitz_probe(SPLIT_TANH, bound, 10)

    def test_probe_runs_at_the_largest_finite_width(self):
        bound = 8.988465674311579e307  # 2 * bound is the largest double
        assert math.isfinite(2.0 * bound) and not math.isfinite(2.0 * math.nextafter(bound, 1e308))
        assert 0.0 <= lipschitz_probe(SPLIT_TANH, bound, 100) <= 1.0

    @pytest.mark.parametrize("chunk", [1000, None])  # None: the module's own chunk
    def test_chunked_draws_are_the_unchunked_formula(self, chunk, monkeypatch):
        """Every drawn point, and so the estimate, equals the one-shot
        default_rng(seed).uniform(size=(4, n)) formula, across chunk edges."""
        from cvnnlab import activations

        if chunk is not None:
            monkeypatch.setattr(activations, "_PROBE_CHUNK", chunk)
        n = 4 * activations._PROBE_CHUNK + 321
        seen = []
        real_apply = activations.apply
        monkeypatch.setattr(activations, "apply",
                            lambda act, z: seen.append(z) or real_apply(act, z))
        for act in ALL_KINDS:
            seen.clear()
            got = lipschitz_probe(act, 2.5, n, seed=11)
            pts = np.random.default_rng(11).uniform(-2.5, 2.5, size=(4, n))
            z1, z2 = pts[0] + 1j * pts[1], pts[2] + 1j * pts[3]
            assert np.concatenate(seen[0::2]).tobytes() == z1.tobytes()
            assert np.concatenate(seen[1::2]).tobytes() == z2.tobytes()
            assert max(z.size for z in seen) == activations._PROBE_CHUNK
            d_in = np.abs(z1 - z2)
            d_out = np.abs(real_apply(act, z1) - real_apply(act, z2))
            mask = d_in > 0.0
            assert got == float(np.max(d_out[mask] / d_in[mask]))
