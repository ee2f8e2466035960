import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from cvnnlab.activations import CRELU, Activation
from cvnnlab.clinalg import pq_norm, spectral_norm_oracle, spectral_norm_power
from cvnnlab.config import build_layers
from cvnnlab.conv import LoweringBudgetError, adjoint, apply, layer_matrix, weight_grad
from cvnnlab.covering import covering_bound_linear
from cvnnlab.datasets import synthetic_glyphs
from cvnnlab.network import (
    AbsHead,
    Conv,
    Dense,
    MaxPoolModulus,
    Network,
    backward,
    build_network,
    infer_shapes,
    sgd_init,
    sgd_step,
)
from cvnnlab.spectral import (
    BoundInputs,
    analyze,
    bound_iid,
    bound_sequential,
    conv_spectral_norm,
    pac_sample_size,
    rademacher_bound,
    report_from_text,
    report_to_text,
)

from conftest import random_complex


def random_kernel(rng, kh, kw, cin, cout):
    shape = (kh, kw, cin, cout)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def direct_conv(kernel, x):
    """Loop-based valid cross-correlation; the lowering oracle."""
    kh, kw, cin, cout = kernel.shape
    h, w, _ = x.shape
    out = np.zeros((h - kh + 1, w - kw + 1, cout), dtype=complex)
    for oy in range(h - kh + 1):
        for ox in range(w - kw + 1):
            for oc in range(cout):
                out[oy, ox, oc] = np.sum(kernel[:, :, :, oc] * x[oy : oy + kh, ox : ox + kw, :])
    return out


class TestLayerMatrix:
    def test_one_by_one_kernel_scales(self):
        c = 2.5 - 1.5j
        m = layer_matrix(np.array(c).reshape(1, 1, 1, 1), (2, 2, 1))
        npt.assert_allclose(m, c * np.eye(4))

    def test_delta_kernel_selection(self):
        k = np.zeros((2, 2, 1, 1), complex)
        k[0, 0, 0, 0] = 1.0
        m = layer_matrix(k, (3, 3, 1))
        assert m.shape == (4, 9)
        npt.assert_array_equal((m != 0).sum(axis=1), np.ones(4, dtype=int))
        npt.assert_allclose(m[m != 0], np.ones(4, dtype=complex))

    def test_matches_direct_convolution(self, rng):
        k = random_kernel(rng, 2, 2, 1, 1)
        m = layer_matrix(k, (3, 3, 1))
        for _ in range(20):
            x = random_complex(rng, 3, 3).reshape(3, 3, 1)
            npt.assert_allclose(m @ x.ravel(), direct_conv(k, x).ravel(), atol=1e-12)

    def test_multichannel_matches_direct(self, rng):
        k = random_kernel(rng, 3, 2, 2, 3)
        m = layer_matrix(k, (5, 4, 2))
        for _ in range(5):
            x = (rng.standard_normal((5, 4, 2)) + 1j * rng.standard_normal((5, 4, 2)))
            npt.assert_allclose(m @ x.ravel(), direct_conv(k, x).ravel(), atol=1e-12)

    def test_budget_enforced(self, rng):
        k = random_kernel(rng, 3, 3, 1, 1)
        with pytest.raises(LoweringBudgetError):
            layer_matrix(k, (10, 10, 1), memory_budget=10)

    @pytest.mark.parametrize("kernel_shape, input_shape", [
        ((3, 2, 2, 3), (7, 5, 2)),
        ((1, 1, 1, 2), (4, 3, 1)),
        ((4, 3, 2, 1), (4, 3, 2)),
    ], ids=["3x2-cin2-cout3", "1x1", "kernel-as-input"])
    def test_position_blocks_are_rows_of_the_whole(self, rng, kernel_shape, input_shape):
        k = random_kernel(rng, *kernel_shape)
        whole = layer_matrix(k, input_shape)
        cout = kernel_shape[-1]
        n_pos = whole.shape[0] // cout
        for step in range(1, n_pos + 1):
            for a in range(0, n_pos, step):
                b = min(a + step, n_pos)
                block = layer_matrix(k, input_shape, positions=(a, b))
                assert block.tobytes() == whole[a * cout : b * cout].tobytes(), (step, a)
        for bad in ((-1, 1), (2, 1), (0, n_pos + 1)):
            with pytest.raises(ValueError, match="positions"):
                layer_matrix(k, input_shape, positions=bad)

    def test_budget_counts_the_whole_lowering_in_a_block(self, rng):
        k = random_kernel(rng, 3, 3, 1, 1)
        with pytest.raises(LoweringBudgetError):
            layer_matrix(k, (10, 10, 1), memory_budget=10, positions=(0, 1))


# (batch, kernel (kh, kw, cin, cout), input (h, w)) for the operator tests
OPERATOR_CASES = [
    pytest.param(1, (3, 3, 2, 2), (6, 7), id="single"),
    pytest.param(4, (3, 3, 2, 2), (8, 8), id="batch4"),
    pytest.param(2, (3, 2, 1, 1), (6, 6), id="kernel3x2"),
    pytest.param(1, (2, 2, 2, 3), (5, 5), id="cin2-cout3"),
    pytest.param(3, (3, 2, 2, 3), (7, 5), id="nonsquare-input"),
    # larger batches, which conv.adjoint maps back in one GEMM over all their samples
    pytest.param(7, (3, 2, 2, 3), (6, 5), id="batch7"),
    pytest.param(8, (3, 2, 2, 3), (6, 5), id="batch8"),
    pytest.param(9, (3, 2, 2, 3), (6, 5), id="batch9"),
    pytest.param(17, (3, 2, 2, 3), (6, 5), id="batch17"),
]


def random_batch(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def direct_lowering(kernel, input_shape):
    """Column j is direct_conv of the j-th unit input."""
    size = math.prod(input_shape)
    cols = [direct_conv(kernel, np.eye(size)[j].reshape(input_shape)).ravel() for j in range(size)]
    return np.stack(cols, axis=1)


class TestConvOperator:
    @pytest.mark.parametrize("n, kshape, hw", OPERATOR_CASES)
    def test_apply_matches_direct(self, rng, n, kshape, hw):
        k = random_kernel(rng, *kshape)
        x = random_batch(rng, (n, *hw, kshape[2]))
        out, _ = apply(x, k)
        for i in range(n):
            npt.assert_allclose(out[i], direct_conv(k, x[i]), atol=1e-12)

    @pytest.mark.parametrize("n, kshape, hw", OPERATOR_CASES)
    def test_adjoint_identity(self, rng, n, kshape, hw):
        kh, kw, cin, cout = kshape
        k = random_kernel(rng, *kshape)
        x = random_batch(rng, (n, *hw, cin))
        y = random_batch(rng, (n, hw[0] - kh + 1, hw[1] - kw + 1, cout))
        lhs = np.vdot(apply(x, k)[0].ravel(), y.ravel())
        rhs = np.vdot(x.ravel(), adjoint(y, k).ravel())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("n, kshape, hw", OPERATOR_CASES)
    def test_adjoint_matches_direct_lowering(self, rng, n, kshape, hw):
        kh, kw, cin, cout = kshape
        k = random_kernel(rng, *kshape)
        y = random_batch(rng, (n, hw[0] - kh + 1, hw[1] - kw + 1, cout))
        got = adjoint(y, k)
        assert got.shape == (n, *hw, cin)  # derived from y and the kernel
        m_h = direct_lowering(k, (*hw, cin)).conj().T
        for i in range(n):
            npt.assert_allclose(got[i].ravel(), m_h @ y[i].ravel(), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n, kshape, hw", OPERATOR_CASES)
    def test_weight_grad_on_complex_patches(self, rng, n, kshape, hw):
        kh, kw, cin, cout = kshape
        _, patches = apply(random_batch(rng, (n, *hw, cin)), random_kernel(rng, *kshape))
        g = random_batch(rng, (n, hw[0] - kh + 1, hw[1] - kw + 1, cout))
        p2 = patches.reshape(-1, patches.shape[-1])
        want = p2.conj().T @ g.reshape(-1, cout)
        got = weight_grad(patches, g)
        assert got.shape == want.shape
        npt.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("n, kshape, hw", OPERATOR_CASES)
    def test_weight_grad_is_kernel_adjoint(self, rng, n, kshape, hw):
        # <apply(x, K), g> = <K, weight_grad(patches, g)> for the map K -> apply(x, K)
        kh, kw, cin, cout = kshape
        k = random_kernel(rng, *kshape)
        x = random_batch(rng, (n, *hw, cin))
        g = random_batch(rng, (n, hw[0] - kh + 1, hw[1] - kw + 1, cout))
        out, patches = apply(x, k)
        lhs = np.vdot(out.ravel(), g.ravel())
        rhs = np.vdot(k.ravel(), weight_grad(patches, g).ravel())
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


class TestConvSpectralNorm:
    def test_scalar_kernel(self):
        k = np.array(3 + 4j).reshape(1, 1, 1, 1)
        assert conv_spectral_norm(k, (4, 4, 1)).value == pytest.approx(5.0, rel=1e-10)

    def test_zero_kernel(self):
        res = conv_spectral_norm(np.zeros((3, 3, 1, 1)), (6, 6, 1))
        assert res.value == 0.0 and res.converged

    def test_overflow_is_reported_unconverged(self):
        with np.errstate(all="ignore"):
            res = conv_spectral_norm(np.full((2, 2, 1, 1), 1e160), (4, 4, 1))
        assert res.value == math.inf and not res.converged

    def test_implicit_matches_lowering(self, rng):
        k = random_kernel(rng, 3, 3, 2, 2)
        implicit = conv_spectral_norm(k, (8, 8, 2), seed=1).value
        explicit = spectral_norm_oracle(layer_matrix(k, (8, 8, 2)))
        assert abs(implicit - explicit) <= 1e-8 * explicit


class TestFreshDeskNetworks:
    """The desk architecture as initialised, before any training step: its
    conv layers have top spectral gaps small enough to stall power iteration."""

    SHAPE = (28, 28, 1)
    LAYERS = build_layers(
        "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs", CRELU, SHAPE
    )

    def test_every_layer_converges(self):
        shapes = infer_shapes(self.LAYERS, self.SHAPE)
        for seed in range(24):
            net = build_network(self.LAYERS, seed=seed)
            for pos, spec in enumerate(self.LAYERS):
                if isinstance(spec, Conv):
                    res = conv_spectral_norm(net.weights[pos], shapes[pos])
                elif isinstance(spec, Dense):
                    res = spectral_norm_power(net.weights[pos])
                else:
                    continue
                assert res.converged, f"init seed {seed}, layer {pos}: {res}"

    def test_init_seed_12_conv2_matches_oracle(self):
        # 1000 steps of power iteration stop 8e-6 low here
        shapes = infer_shapes(self.LAYERS, self.SHAPE)
        kernel = build_network(self.LAYERS, seed=12).weights[2]
        res = conv_spectral_norm(kernel, shapes[2])
        oracle = spectral_norm_oracle(layer_matrix(kernel, shapes[2], memory_budget=None))
        assert res.converged
        assert abs(res.value - oracle) <= 1e-8 * oracle


    def test_analyze_holds_one_lowering_at_a_time(self):
        # the lowerings went into pq_norm one by one, conv1's released before
        # conv2's was built, and pq_norm took no whole-matrix modulus copy:
        # 103.5 MiB before, against conv1's 68.9 MiB lowering
        net = build_network(self.LAYERS, seed=0)
        shapes = infer_shapes(self.LAYERS, self.SHAPE)
        conv1_bytes = 16 * math.prod(shapes[1]) * math.prod(self.SHAPE)
        tracemalloc.start()
        try:
            analyze(net, self.SHAPE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < conv1_bytes + 4 * 2**20

    def test_analyze_holds_one_lowering_block_at_a_time(self):
        # each lowering is built and read in blocks of about 2^16 entries:
        # 69.5 MiB when analyze held conv1's whole 68.9 MiB lowering
        net = build_network(self.LAYERS, seed=0)
        tracemalloc.start()
        try:
            analyze(net, self.SHAPE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestStreamedConvB:
    """analyze builds and reads each conv lowering in blocks of whole output
    positions; its b has the bytes of pq_norm on the whole lowering."""

    @staticmethod
    def whole_lowering_b(kernel, shape):
        return pq_norm(layer_matrix(kernel, shape, memory_budget=None), 2, 1)

    def test_desk_conv_layers_fresh_and_after_a_step(self):
        shape = (28, 28, 1)
        layers = build_layers(
            "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs", CRELU, shape
        )
        net = build_network(layers, seed=0)
        images, labels = synthetic_glyphs(32, seed=0)
        shapes = infer_shapes(layers, shape)
        for step in range(2):
            rep = analyze(net, shape)
            convs = [rec for rec in rep.layers if rec.kind == "conv"]
            assert [rec.position for rec in convs] == [0, 2]
            for rec in convs:
                kernel = net.weights[rec.position]
                assert rec.b == self.whole_lowering_b(kernel, shapes[rec.position]), (step, rec)
            if step == 0:
                grads = backward(net, images[..., None], labels)
                sgd_step(net, grads, lr=0.01, momentum=0.9, velocities=sgd_init(net))
                assert not np.array_equal(net.weights[0], build_network(layers, seed=0).weights[0])

    # the (1, 1, 1, 300) lowering is one column, which pq_norm sums pairwise
    # and not row after row; the (2, 2, 1000, 1) lowering's 10 positions
    # split 3, 3, 3, 1 at 18000 entries a position; the (2, 2, 1100, 4)
    # lowering has more than 2^16 entries a position, so each of its 9
    # blocks is one position
    @pytest.mark.parametrize("kernel_shape, input_shape", [
        ((3, 2, 2, 3), (7, 5, 2)),
        ((1, 1, 1, 1), (6, 5, 1)),
        ((1, 1, 3, 2), (4, 4, 3)),
        ((5, 4, 2, 3), (5, 4, 2)),
        ((1, 1, 1, 300), (1, 1, 1)),
        ((2, 2, 1000, 1), (6, 3, 1000)),
        ((2, 2, 1100, 4), (4, 4, 1100)),
    ], ids=lambda v: "x".join(map(str, v)))
    @pytest.mark.parametrize("scale", [1.0, 1e300, 1e-300, 1e-310])
    def test_odd_shapes_and_extreme_entries(self, kernel_shape, input_shape, scale):
        rng = np.random.default_rng(math.prod(kernel_shape))
        kernel = scale * random_kernel(rng, *kernel_shape)
        net = Network([Conv(*kernel_shape)], [kernel], [np.zeros(kernel_shape[-1], complex)])
        with np.errstate(over="ignore", invalid="ignore"):  # Lanczos overflows at 1e300
            b = analyze(net, input_shape).layers[0].b
        assert b is not None and b == self.whole_lowering_b(kernel, input_shape)


class TestAnalyze:
    def test_identity_dense_hand_value(self):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        rep = analyze(net, (2,))
        assert rep.layers[0].s == pytest.approx(1.0, abs=1e-12)
        assert rep.layers[0].b == pytest.approx(2.0, abs=1e-12)
        assert rep.r_a == pytest.approx(2.0, rel=1e-12)

    def test_two_identity_layers(self):
        net = Network(
            [Dense(2, 2), Dense(2, 2)],
            [np.eye(2, dtype=complex)] * 2,
            [np.zeros(2, complex)] * 2,
        )
        rep = analyze(net, (2,))
        assert rep.r_a == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-12)
        assert rep.sn_product == pytest.approx(1.0, abs=1e-12)

    def test_zero_network(self):
        net = Network([Dense(2, 2)], [np.zeros((2, 2), complex)], [np.zeros(2, complex)])
        rep = analyze(net, (2,))
        assert rep.sn_product == 0.0
        assert rep.r_a == 0.0

    def test_overflowed_norm_makes_r_a_inf_not_nan(self):
        net = Network([Dense(2, 2)], [np.full((2, 2), 1e160 + 1e160j)], [np.zeros(2, complex)])
        with np.errstate(over="ignore", invalid="ignore"):
            rep = analyze(net, (2,))
        assert rep.layers[0].s == math.inf and not rep.power_iteration_converged
        assert rep.layers[0].b == pytest.approx(4e160, rel=1e-15)
        assert rep.r_a == math.inf

    def test_zero_map_after_overflowed_layer_reads_zero_not_nan(self):
        net = Network(
            [Dense(2, 2), Dense(2, 2)],
            [np.full((2, 2), 1e160 + 0j), np.zeros((2, 2), complex)],
            [np.zeros(2, complex)] * 2,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            rep = analyze(net, (2,))
        assert rep.layers[0].s == math.inf
        assert (rep.sn_product, rep.r_a) == (0.0, 0.0)

    def test_dense_values_match_direct_ops(self, rng):
        from cvnnlab.clinalg import pq_norm, spectral_norm_power

        w = random_complex(rng, 5, 4)
        net = Network([Dense(5, 4)], [w], [np.zeros(4, complex)])
        rep = analyze(net, (5,))
        assert rep.layers[0].s == spectral_norm_power(w).value
        assert rep.layers[0].b == pq_norm(w.T, 2, 1)

    def test_scaling_homogeneity(self, rng):
        w1 = random_complex(rng, 4, 4)
        w2 = random_complex(rng, 4, 3)
        net = Network([Dense(4, 4), Dense(4, 3)], [w1, w2], [np.zeros(4, complex), np.zeros(3, complex)])
        rep1 = analyze(net, (4,))
        c = 3.0
        net_scaled = Network(
            [Dense(4, 4), Dense(4, 3)], [c * w1, w2], [np.zeros(4, complex), np.zeros(3, complex)]
        )
        rep2 = analyze(net_scaled, (4,))
        assert rep2.layers[0].s == pytest.approx(c * rep1.layers[0].s, rel=1e-9)
        assert rep2.sn_product == pytest.approx(c * rep1.sn_product, rel=1e-9)

    def test_conv_net_with_budget_fallback(self, rng):
        layers = [Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)]
        net = build_network(layers, seed=2)
        full = analyze(net, (6, 6, 1))
        assert full.r_a is not None and full.r_a > 0
        # the conv's lowering has 4225^2 entries, above the 2^24 budget
        layers = [Conv(1, 1, 1, 1, CRELU), MaxPoolModulus(5), Dense(169, 4), AbsHead(4)]
        net = build_network(layers, seed=2)
        limited = analyze(net, (65, 65, 1))
        assert limited.r_a is None
        assert limited.layers[0].b is None
        # a 1x1 single-channel conv is its one tap k times the identity
        k = net.weights[0].item()
        expected = abs(k) * spectral_norm_oracle(net.weights[2])
        assert limited.sn_product == pytest.approx(expected, rel=1e-12)

    def test_modrelu_marks_empirical(self, rng):
        # modrelu is 1-Lipschitz: one layer's R_A is s * (b / s) = b
        net = build_network([Dense(3, 3, Activation("modrelu", b=-0.5))], seed=4)
        rep = analyze(net, (3,))
        assert rep.r_a == pytest.approx(rep.layers[0].b, rel=1e-12)

    def test_pool_and_head_contribute_nothing(self, rng):
        layers = [Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)]
        net = build_network(layers, seed=2)
        rep = analyze(net, (6, 6, 1))
        assert len(rep.layers) == 2  # conv and dense only
        assert {rec.kind for rec in rep.layers} == {"conv", "dense"}


def hand_bound_iid(m, n, w, z, r, delta):
    """Independent arithmetic: exp/log powers, fsum accumulation."""
    t1 = 8.0 * m * math.exp(-1.5 * math.log(n))
    t2 = 36.0 * z * math.exp(0.5 * math.log(2.0 * math.log(2.0 * w))) * math.log(n) * r / n
    t3 = 3.0 * m * math.exp(0.5 * (math.log(math.log(2.0 / delta)) - math.log(2.0 * n)))
    return math.fsum([t1, t2, t3])


class TestBounds:
    def test_worked_example(self):
        inp = BoundInputs(m=1.0, n=100, w=2, z_norm=10.0, r_a=2.0, delta=0.1)
        hand = (
            8.0 / 1000.0
            + 36.0 * 10.0 * math.sqrt(2.0 * math.log(4.0)) * math.log(100.0) * 2.0 / 100.0
            + 3.0 * math.sqrt(math.log(20.0) / 200.0)
        )
        assert bound_iid(inp) == pytest.approx(hand, rel=1e-12)

    def test_random_tuples_vs_independent_arithmetic(self, rng):
        for _ in range(20):
            m = float(rng.uniform(0.1, 10))
            n = int(rng.integers(5, 10_000))
            w = int(rng.integers(1, 5000))
            z = float(rng.uniform(0.1, 100))
            r = float(rng.uniform(0, 50))
            delta = float(rng.uniform(0.001, 0.999))
            inp = BoundInputs(m=m, n=n, w=w, z_norm=z, r_a=r, delta=delta)
            assert bound_iid(inp) == pytest.approx(hand_bound_iid(m, n, w, z, r, delta), rel=1e-12)

    def test_r_a_zero_reduction(self):
        inp = BoundInputs(m=2.0, n=50, w=4, z_norm=3.0, r_a=0.0, delta=0.2)
        expected = 8.0 * 2.0 / 50**1.5 + 3.0 * 2.0 * math.sqrt(math.log(10.0) / 100.0)
        assert bound_iid(inp) == pytest.approx(expected, rel=1e-14)
        seq = 8.0 * 2.0 / 50 + 2.0 * math.sqrt(math.log(10.0) / 100.0)
        assert bound_sequential(inp) == pytest.approx(seq, rel=1e-14)

    def test_doubling_r_a_moves_middle_term_only(self):
        base = BoundInputs(m=1.0, n=200, w=8, z_norm=5.0, r_a=3.0, delta=0.1)
        doubled = BoundInputs(m=1.0, n=200, w=8, z_norm=5.0, r_a=6.0, delta=0.1)
        middle = 36.0 * 5.0 * math.sqrt(2.0 * math.log(16.0)) * math.log(200.0) * 3.0 / 200.0
        assert bound_iid(doubled) - bound_iid(base) == pytest.approx(middle, rel=1e-12)

    def test_rademacher_identity(self, rng):
        for _ in range(20):
            m = float(rng.uniform(0.1, 5))
            n = int(rng.integers(3, 5000))
            w = int(rng.integers(1, 100))
            z = float(rng.uniform(0.1, 50))
            r = float(rng.uniform(0, 20))
            delta = float(rng.uniform(0.01, 0.99))
            inp = BoundInputs(m=m, n=n, w=w, z_norm=z, r_a=r, delta=delta)
            reconstructed = 2.0 * rademacher_bound(m, n, w, z, r) + 3.0 * m * math.sqrt(
                math.log(2.0 / delta) / (2.0 * n)
            )
            assert bound_iid(inp) == pytest.approx(reconstructed, rel=1e-15)

    def test_rademacher_identity_is_exact(self, rng):
        for _ in range(200):
            m, z = 10.0 ** rng.uniform(-3, 3, size=2)
            n, w = (int(v) for v in rng.integers(1, 10**6, size=2))
            r = float(10.0 ** rng.uniform(-6, 6))
            delta = float(rng.uniform(0.001, 0.999))
            inp = BoundInputs(m=m, n=n, w=w, z_norm=z, r_a=r, delta=delta)
            tail = 3.0 * m * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
            assert bound_iid(inp) == 2.0 * rademacher_bound(m, n, w, z, r) + tail

    def test_rademacher_r_a_zero(self):
        assert rademacher_bound(1.0, 100, 2, 1.0, 0.0) == pytest.approx(4.0 / 1000.0, rel=1e-14)

    def test_rademacher_sample_scaling(self):
        a = rademacher_bound(1.0, 100, 2, 1.0, 0.0)
        b = rademacher_bound(1.0, 400, 2, 1.0, 0.0)
        assert a / b == pytest.approx(8.0, rel=1e-12)

    def test_monotonicity_grids(self):
        base = dict(m=1.0, w=8, z_norm=5.0, r_a=2.0, delta=0.1)
        values = [bound_iid(BoundInputs(n=n, **base)) for n in range(10, 2000, 97)]
        assert all(a > b for a, b in zip(values, values[1:]))
        for field, grid in (
            ("r_a", np.linspace(0.5, 20, 12)),
            ("m", np.linspace(0.5, 20, 12)),
            ("z_norm", np.linspace(0.5, 20, 12)),
        ):
            vals = []
            for v in grid:
                kw = dict(base, n=100)
                kw[field] = float(v)
                vals.append(bound_iid(BoundInputs(**kw)))
            assert all(a < b for a, b in zip(vals, vals[1:]))
        # increasing in 1/delta
        deltas = [0.5, 0.2, 0.1, 0.01]
        vals = [bound_iid(BoundInputs(n=100, **dict(base, delta=d))) for d in deltas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_sequential_coefficients(self):
        # the two bounds differ only in the stated coefficients/exponents
        inp = BoundInputs(m=1.0, n=64, w=4, z_norm=2.0, r_a=1.5, delta=0.3)
        n = 64.0
        seq = bound_sequential(inp)
        manual = (
            8.0 / n
            + 24.0 * 2.0 * math.sqrt(2.0 * math.log(8.0)) * math.log(n) * 1.5 / n
            + math.sqrt(math.log(2.0 / 0.3) / (2.0 * n))
        )
        assert seq == pytest.approx(manual, rel=1e-14)

    def test_bound_inputs_validation(self):
        with pytest.raises(ValueError):
            BoundInputs(m=1.0, n=10, w=2, z_norm=1.0, r_a=1.0, delta=1.5)
        with pytest.raises(ValueError):
            BoundInputs(m=-1.0, n=10, w=2, z_norm=1.0, r_a=1.0, delta=0.5)

    @pytest.mark.parametrize("field", ["m", "z_norm", "r_a"])
    def test_nan_inputs_rejected(self, field):
        args = dict(m=1.0, n=10, w=2, z_norm=1.0, r_a=1.0)
        args[field] = math.nan
        with pytest.raises(ValueError):
            BoundInputs(delta=0.5, **args)
        with pytest.raises(ValueError):
            rademacher_bound(**args)
        with pytest.raises(ValueError):
            pac_sample_size(0.5, 0.1, args["m"], args["z_norm"], args["w"], args["r_a"])


class TestCoveringBounds:
    def test_linear_unit_case(self):
        assert covering_bound_linear(1, 1, 1, 1, 1) == pytest.approx(math.log(4.0))

    def test_linear_ceiling_floor(self):
        # eps >= a b: the ceiling collapses to 1
        assert covering_bound_linear(1.0, 1.0, 3, 2.0, 2) == pytest.approx(
            math.log(24.0)
        )

    def test_linear_inf_exponent(self):
        with_inf = covering_bound_linear(2.0, 3.0, 7, 0.5, 4)
        manual = math.ceil(4.0 * 9.0 / 0.25) * math.log(4.0 * 4 * 7)
        assert with_inf == pytest.approx(manual, rel=1e-14)

    @pytest.mark.parametrize("a, eps", [(math.inf, 0.5), (1e200, 1e-200), (math.nan, 0.5)])
    def test_linear_count_beyond_floats_raises(self, a, eps):
        with pytest.raises(ValueError):
            covering_bound_linear(a, 1.0, 2, eps, 2)


class TestPacSampleSize:
    def test_eps_halving_scales_by_eight(self):
        n1 = pac_sample_size(0.5, 0.1, 1.0, 10.0, 2, 2.0)
        n2 = pac_sample_size(0.25, 0.1, 1.0, 10.0, 2, 2.0)
        assert n2 == pytest.approx(8 * n1, rel=1e-9)

    @pytest.mark.parametrize("r_a", [math.inf, 1e200])
    def test_no_finite_size_is_value_error(self, r_a):
        with pytest.raises(ValueError, match="no finite sample size"):
            pac_sample_size(0.5, 0.1, 1.0, 10.0, 2, r_a)

    def test_hand_instance(self):
        eps, delta, m, z, w, r = 0.5, 0.1, 1.0, 10.0, 2, 2.0
        inner = 8.0 + 36.0 * 10.0 * math.sqrt(2.0 * math.log(4.0)) * 2.0 + 3.0 * math.sqrt(
            math.log(20.0) / 2.0
        )
        assert pac_sample_size(eps, delta, m, z, w, r) == math.ceil(8.0 / 0.125 * inner**3)

    def test_threshold_definitional(self, rng):
        for _ in range(10):
            eps = float(rng.uniform(0.05, 0.9))
            delta = float(rng.uniform(0.01, 0.5))
            m = float(rng.uniform(0.5, 3))
            z = float(rng.uniform(1, 20))
            w = int(rng.integers(1, 50))
            r = float(rng.uniform(0, 5))
            n = pac_sample_size(eps, delta, m, z, w, r)
            inner = (
                8.0 * m
                + 36.0 * z * math.sqrt(2.0 * math.log(2.0 * w)) * r
                + 3.0 * m * math.sqrt(math.log(2.0 / delta) / 2.0)
            )
            rhs = 8.0 / eps**3 * inner**3
            assert n >= rhs
            assert n - 1 < rhs


class TestReportSerialization:
    def test_round_trip(self, rng):
        layers = [Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4), AbsHead(4)]
        net = build_network(layers, seed=2)
        rep = analyze(net, (6, 6, 1))
        text = report_to_text(rep)
        back = report_from_text(text)
        assert back == rep
        net = build_network([Dense(3, 4, Activation("modrelu", b=-0.5)), Dense(4, 2)], seed=3)
        rep = analyze(net, (3,))
        assert report_from_text(report_to_text(rep)) == rep

    def test_sn_product_only_round_trip(self, rng):
        layers = [Conv(1, 1, 1, 1, CRELU), MaxPoolModulus(5), Dense(169, 4), AbsHead(4)]
        net = build_network(layers, seed=2)
        rep = analyze(net, (65, 65, 1))  # a lowering above the budget
        text = report_to_text(rep)
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert "layer.0.b" not in keys and "r_a" not in keys and "layer.1.b" in keys
        back = report_from_text(text)
        assert back == rep and back.layers[0].b is None and back.r_a is None

    @pytest.mark.parametrize(
        "key", ["layer.0.position", "layer_count", "sn_product", "power_iteration_converged"]
    )
    def test_missing_key_is_named(self, key):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        text = report_to_text(analyze(net, (2,)))
        lines = [l for l in text.splitlines() if not l.startswith(key + " =")]
        with pytest.raises(ValueError, match=f"report lacks '{key}'"):
            report_from_text("\n".join(lines))

    def test_flat_kv_shape(self):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        text = report_to_text(analyze(net, (2,)))
        assert "layer.0.s = 1\n" in text
        assert text.startswith("format = spectral-report-v4\n")
        assert len(text.splitlines()) == 9  # format, count, flag, 4 layer fields, 2 aggregates
        assert "rho" not in text and "sn_product_only" not in text

    @pytest.mark.parametrize("version", ["v1", "v2", "v3"])
    def test_earlier_report_format_rejected(self, version):
        net = Network([Dense(2, 2)], [np.eye(2, dtype=complex)], [np.zeros(2, complex)])
        text = report_to_text(analyze(net, (2,))).replace("-v4\n", f"-{version}\n", 1)
        with pytest.raises(ValueError, match=f"unsupported report format 'spectral-report-{version}'"):
            report_from_text(text)
