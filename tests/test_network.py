import base64
import functools
import json
import math
import os
import struct
import tempfile
import tracemalloc
import warnings
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvnnlab import config, lanes, network
from cvnnlab.activations import AMP_TANH, CRELU, SPLIT_TANH, Activation
from cvnnlab.clinalg import spectral_norm_oracle
from cvnnlab.config import ConfigError, parse_config
from cvnnlab.network import (
    AbsHead,
    CheckpointError,
    Conv,
    Dense,
    MaxPoolModulus,
    Network,
    backward,
    build_network,
    forward,
    infer_shapes,
    load_checkpoint,
    max_width,
    per_sample_losses,
    save_checkpoint,
    sgd_init,
    sgd_step,
)

from conftest import random_complex, single_lane


def finite_diff_grads(net, x, y, h=1e-6):
    """Central finite differences of the batch loss for every weight."""

    def batch_loss():
        return float(per_sample_losses(forward(net, x), y).mean())

    out = []
    for pos in range(len(net.layers)):
        if net.weights[pos] is None:
            out.append(None)
            continue
        arr = net.weights[pos]
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            for delta in (h, 1j * h):
                arr[ix] += delta
                lp = batch_loss()
                arr[ix] -= 2 * delta
                lm = batch_loss()
                arr[ix] += delta
                num = (lp - lm) / (2 * h)
                if delta == h:
                    g[ix] += num
                else:
                    g[ix] += 1j * num
        out.append(g)
    return out


def max_rel_err(analytic, numeric, floor=1e-8):
    err = 0.0
    for ga, gn in zip(analytic, numeric):
        if ga is None:
            continue
        for part in (np.real, np.imag):
            pa, pn = part(ga), part(gn)
            denom = np.maximum(np.abs(pn), floor)
            err = max(err, float(np.max(np.abs(pa - pn) / denom)))
    return err


class TestForward:
    def test_identity_zero_input(self):
        net = Network(
            [Dense(2, 2, SPLIT_TANH)],
            [np.eye(2, dtype=complex)],
            [np.zeros(2, dtype=complex)],
        )
        out = forward(net, np.zeros((1, 2), dtype=complex))
        npt.assert_array_equal(out, np.zeros((1, 2), dtype=complex))

    def test_two_layer_matches_real_embedding(self, rng):
        """Pre-activation linear stack vs the stacked-real block computation."""
        w1 = random_complex(rng, 4, 3)
        w2 = random_complex(rng, 3, 2)
        net = Network(
            [Dense(4, 3), Dense(3, 2)],
            [w1, w2],
            [np.zeros(3, complex), np.zeros(2, complex)],
        )
        x = random_complex(rng, 6, 4)

        def embed(w):
            return np.block([[w.real, w.imag], [-w.imag, w.real]])

        xs = np.hstack([x.real, x.imag])
        outs = xs @ embed(w1) @ embed(w2)
        expected = outs[:, :2] + 1j * outs[:, 2:]
        npt.assert_allclose(forward(net, x), expected, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        net = build_network([Dense(4, 2)], seed=0)
        with pytest.raises(ValueError):
            forward(net, random_complex(rng, 3, 5))

    def test_abs_head_returns_the_moduli_of_the_layer_below(self, rng):
        """The abs head's output is the class scores, the entry moduli of its
        flattened input, bit for bit: the softmax belongs to the loss."""
        net = build_network([Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), AbsHead(8)], seed=1)
        x = random_complex(rng, 5, 36).reshape(5, 6, 6, 1)
        below = forward(Network(net.layers[:2], net.weights[:2], net.thresholds[:2]), x)
        out = forward(net, x)
        assert out.dtype == np.float64 and out.shape == (5, 8)
        assert out.tobytes() == np.abs(below.reshape(5, -1)).tobytes()

    def test_lipschitz_composition_with_zero_thresholds(self, rng):
        layers = [Dense(5, 4, SPLIT_TANH), Dense(4, 3, SPLIT_TANH), Dense(3, 3, SPLIT_TANH)]
        net = build_network(layers, seed=3)
        product = 1.0
        for w in net.weights:
            product *= spectral_norm_oracle(w)  # rho = 1 for split_tanh
        x = random_complex(rng, 40, 5)
        out = forward(net, x)
        out_norms = np.sqrt(np.sum(np.abs(out) ** 2, axis=1))
        in_norms = np.sqrt(np.sum(np.abs(x) ** 2, axis=1))
        assert np.all(out_norms <= product * in_norms * (1 + 1e-8))


class TestPooling:
    def test_selects_max_modulus_and_subset(self, rng):
        net = Network([MaxPoolModulus(2)], [None], [None])
        x = random_complex(rng, 3, 16).reshape(3, 4, 4, 1)
        out = forward(net, x)
        assert out.shape == (3, 2, 2, 1)
        for n in range(3):
            for py in range(2):
                for px in range(2):
                    window = x[n, 2 * py : 2 * py + 2, 2 * px : 2 * px + 2, 0].ravel()
                    got = out[n, py, px, 0]
                    assert got in window  # exact subset of inputs
                    assert got == window[np.argmax(np.abs(window))]

    def test_tie_break_row_major(self):
        net = Network([MaxPoolModulus(2)], [None], [None])
        # all four entries share modulus 1; the first in row-major order wins
        x = np.array([[1j, -1.0], [1.0, -1j]], dtype=complex).reshape(1, 2, 2, 1)
        out = forward(net, x)
        assert out[0, 0, 0, 0] == 1j


class TestBackward:
    def test_zero_net_l2_zero_target(self):
        net = Network(
            [Dense(3, 2)],
            [np.zeros((3, 2), complex)],
            [np.zeros(2, complex)],
        )
        x = np.zeros((4, 3), complex)
        grads = backward(net, x, np.zeros((4, 2), complex))
        npt.assert_array_equal(grads[0], np.zeros((3, 2), complex))

    def test_dense_gradcheck_l2(self, rng):
        layers = [Dense(4, 3, SPLIT_TANH), Dense(3, 2, SPLIT_TANH)]
        net = build_network(layers, seed=5)
        x = random_complex(rng, 8, 4, scale=0.7)
        y = random_complex(rng, 8, 2, scale=0.7)
        analytic = backward(net, x, y)
        numeric = finite_diff_grads(net, x, y)
        assert max_rel_err(analytic, numeric) <= 1e-5

    def test_conv_pool_abshead_gradcheck_ce(self, rng):
        layers = [
            Conv(3, 3, 1, 2, SPLIT_TANH),
            MaxPoolModulus(2),
            Dense(8, 5, SPLIT_TANH),
            Dense(5, 3),
            AbsHead(3),
        ]
        net = build_network(layers, seed=11)
        x = random_complex(rng, 6, 36, scale=0.8).reshape(6, 6, 6, 1)
        labels = rng.integers(0, 3, size=6)
        analytic = backward(net, x, labels)
        numeric = finite_diff_grads(net, x, labels)
        assert max_rel_err(analytic, numeric, floor=1e-6) <= 1e-5

    def test_linear_grads_match_real_embedding_calculus(self, rng):
        """Independent derivation through the stacked-real parametrization."""
        w = random_complex(rng, 3, 2)
        net = Network([Dense(3, 2)], [w], [np.zeros(2, complex)])
        x = random_complex(rng, 5, 3)
        y = random_complex(rng, 5, 2)
        dw = backward(net, x, y)[0]

        xs = np.hstack([x.real, x.imag])  # (n, 2 d_in)
        we = np.block([[w.real, w.imag], [-w.imag, w.real]])
        outs = xs @ we
        out = outs[:, :2] + 1j * outs[:, 2:]
        diff = out - y
        norms = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1, keepdims=True))
        g_parts = np.hstack([diff.real, diff.imag]) / (x.shape[0] * norms)
        dwe = xs.T @ g_parts
        dw_re = dwe[:3, :2] + dwe[3:, 2:]
        dw_im = dwe[:3, 2:] - dwe[3:, :2]
        npt.assert_allclose(dw.real, dw_re, atol=1e-12)
        npt.assert_allclose(dw.imag, dw_im, atol=1e-12)


class TestRealInputs:
    """A real batch stays real up to a dense or conv layer 0, and backward
    forms no gradient with respect to the batch."""

    CONV_FIRST = [
        Conv(3, 3, 1, 3, CRELU), MaxPoolModulus(2), Conv(2, 2, 3, 2, SPLIT_TANH),
        Dense(8, 4, CRELU), Dense(4, 3), AbsHead(3),
    ]
    DENSE_FIRST = [Dense(12, 5, CRELU), Dense(5, 3, SPLIT_TANH), AbsHead(3)]

    @staticmethod
    def _spy_batches(monkeypatch):
        """dtypes of the batches the forward walk receives."""
        seen = []
        walk = network._forward_walk

        def spy(net, x, caches):
            seen.append(x.dtype)
            return walk(net, x, caches)

        monkeypatch.setattr(network, "_forward_walk", spy)
        return seen

    @pytest.mark.parametrize("layers, shape", [(CONV_FIRST, (9, 9, 1)), (DENSE_FIRST, (12,))])
    def test_backward_on_real_batch_matches_complex_cast(self, layers, shape, rng, monkeypatch):
        net = build_network(layers, seed=4)
        x = rng.uniform(0.0, 1.0, size=(9,) + shape)
        labels = rng.integers(0, 3, size=9)
        seen = self._spy_batches(monkeypatch)
        real = backward(net, x, labels)
        cast = backward(net, x.astype(np.complex128), labels)
        assert seen == [np.float64, np.complex128]
        for got, want in (p for p in zip(real, cast) if p[0] is not None):
            assert got.dtype == np.complex128
            npt.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.max(np.abs(want)))

    @pytest.mark.parametrize("layers, shape", [(CONV_FIRST, (9, 9, 1)), (DENSE_FIRST, (12,))])
    def test_empty_batch_is_refused(self, layers, shape):
        net = build_network(layers, seed=1)
        x = np.zeros((0,) + shape)
        with pytest.raises(ValueError, match="batch has no samples"):
            forward(net, x)
        with pytest.raises(ValueError, match="batch has no samples"):
            backward(net, x, np.zeros(0, dtype=int))

    def test_forward_output_dtypes_unchanged(self, rng):
        x = rng.uniform(0.0, 1.0, size=(4, 7, 7, 1))
        conv_out = forward(build_network(self.CONV_FIRST[:3], seed=1), x)
        assert conv_out.dtype == np.complex128
        pooled = forward(Network([MaxPoolModulus(2)], [None], [None]), x)
        assert pooled.dtype == np.complex128
        npt.assert_array_equal(pooled, forward(Network([MaxPoolModulus(2)], [None], [None]),
                                               x.astype(np.complex128)))

    def test_layer_zero_gets_no_input_gradient(self, rng, monkeypatch):
        calls = []
        adjoint = network.conv.adjoint
        monkeypatch.setattr(network.conv, "adjoint", lambda *a: calls.append(1) or adjoint(*a))
        net = build_network(self.CONV_FIRST, seed=2)
        backward(net, rng.uniform(size=(3, 9, 9, 1)), [0, 1, 2])
        assert len(calls) == 1  # conv at position 2 only

    def test_one_activation_backprop_per_activated_layer(self, rng, monkeypatch):
        calls = []
        act_backprop = network.act_backprop
        monkeypatch.setattr(
            network, "act_backprop",
            lambda act, z, g: calls.append(act.kind) or act_backprop(act, z, g),
        )
        net = build_network(self.CONV_FIRST, seed=2)
        backward(net, rng.uniform(size=(3, 9, 9, 1)), [0, 1, 2])
        # last activated layer first
        assert calls == ["crelu", "split_tanh", "crelu"]


def _pool_reference(x, window, grad):
    """The argmax pool: stack each window's entries, take the first largest
    modulus (np.argmax), gather it, and scatter ``grad`` back through a zeroed
    window stack folded into the input shape; also the selected flat indices."""
    n, h, w, c = x.shape
    oh, ow = h // window, w // window
    v = x[:, : oh * window, : ow * window, :]
    v = v.reshape(n, oh, window, ow, window, c).transpose(0, 1, 3, 2, 4, 5)
    v = v.reshape(n, oh, ow, window * window, c)
    idx = np.argmax(np.abs(v), axis=3)
    out = np.take_along_axis(v, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    stack = np.zeros(v.shape, dtype=np.complex128)
    np.put_along_axis(stack, idx[:, :, :, None, :], grad[:, :, :, None, :], axis=3)
    stack = stack.reshape(n, oh, ow, window, window, c).transpose(0, 1, 3, 2, 4, 5)
    dx = np.zeros(x.shape, dtype=np.complex128)
    dx[:, : oh * window, : ow * window, :] = stack.reshape(n, oh * window, ow * window, c)
    dy, dxx = np.divmod(idx, window)
    i, oy, ox, ch = np.indices(idx.shape)
    flat = np.ravel_multi_index((i, oy * window + dy, ox * window + dxx, ch), x.shape)
    return out, flat, dx


def _pool_inputs(shape, rng):
    """Continuous values; small Gaussian integers, whose moduli tie often
    (|1+2j| = |2+1j| = |2-1j| exactly); and the same with nan, inf and
    nan-and-inf entries planted, several in some windows."""
    cont = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ties = rng.integers(-2, 3, shape) + 1j * rng.integers(-2, 3, shape)
    planted = ties.copy().reshape(-1)
    spots = rng.choice(planted.size, size=max(3, planted.size // 6), replace=False)
    specials = [complex(np.nan, 0.0), complex(0.0, -np.nan), complex(np.inf, 1.0),
                complex(np.inf, np.nan), complex(1.0, np.nan)]
    planted[spots] = [specials[i % len(specials)] for i in range(spots.size)]
    return [cont, ties, planted.reshape(shape)]


@pytest.mark.parametrize(
    "shape, window",
    [
        ((3, 7, 9, 2), 2),
        ((2, 11, 10, 3), 3),
        ((2, 4, 4, 1), 2),
        ((4, 9, 9, 2), 3),  # windows tile the input exactly
        ((2, 5, 8, 3), 2),  # ragged rows only
        ((1, 3, 5, 2), 1),
    ],
)
def test_pool_backward_scatter_matches_reference_bitwise(shape, window, rng):
    for x in _pool_inputs(shape, rng):
        out, flat = network._pool_forward(x, window)
        g = rng.standard_normal(out.shape) + 1j * rng.standard_normal(out.shape)
        want_out, want_flat, want_dx = _pool_reference(x, window, g)
        assert out.tobytes() == want_out.tobytes()
        npt.assert_array_equal(flat, want_flat)
        dx = np.full(shape, complex(np.nan, np.nan))  # every entry must be written
        assert network._pool_backward(g, flat, dx).tobytes() == want_dx.tobytes()


class TestLosses:
    def test_l2_zero_on_match(self, rng):
        out = random_complex(rng, 3, 2)
        assert float(per_sample_losses(out, out).mean()) == 0.0

    def test_l2_hand_value(self):
        out = np.array([[3 + 4j, 0j]])
        target = np.zeros((1, 2), complex)
        assert float(per_sample_losses(out, target).mean()) == pytest.approx(5.0)

    def test_ce_uniform_softmax(self):
        scores = np.full((4, 10), 0.1)  # equal scores: a uniform softmax
        loss = float(per_sample_losses(scores, np.array([0, 3, 5, 9])).mean())
        assert loss == pytest.approx(math.log(10.0), rel=1e-12)

    def test_ce_stays_finite_where_the_label_probability_underflows(self):
        """A score gap of 1000 rounds the labelled class's softmax probability
        to 0; the log-sum-exp loss is still the gap, and the gradient is the
        one a rounded softmax gives."""
        net = build_network([Dense(2, 3), AbsHead(3)])
        net.weights[0][...] = 0.0
        net.weights[0][0, 0] = 1e3
        x, labels = np.array([[1.0 + 0j, 0j]]), np.array([1])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            loss = per_sample_losses(forward(net, x), labels)
            grads = backward(net, x, labels)
        assert loss.shape == (1,) and float(loss[0]) == pytest.approx(1000.0, rel=1e-12)
        assert grads[0].tobytes() == np.array([[1, 0, 0], [0, 0, 0]], np.complex128).tobytes()

    @pytest.mark.parametrize("name", ["hinge", "L2", ""])
    def test_unknown_loss_name_rejected(self, name):
        with pytest.raises(ConfigError) as err:
            parse_config(f"dataset = synthetic\nloss = {name}\n")
        assert all(known in str(err.value) for known in config.LOSSES)

    @pytest.mark.parametrize(
        "labels", [[0.5, 1.0], [0.0, 2.0], [True, False]], ids=["fractional", "integral", "bool"]
    )
    def test_labels_must_have_an_integer_dtype(self, rng, labels):
        net = build_network([Dense(3, 3), AbsHead(3)], seed=0)
        x = random_complex(rng, 2, 3)
        with pytest.raises(ValueError, match="one integer per sample"):
            per_sample_losses(forward(net, x), np.array(labels))
        with pytest.raises(ValueError, match="one integer per sample"):
            backward(net, x, np.array(labels))

    def test_ce_needs_abs_head_output(self, rng):
        """Labels against a complex output fail the l2 target's shape check."""
        net = build_network([Dense(3, 2)], seed=0)
        x = random_complex(rng, 4, 3)
        labels = np.array([0, 1, 1, 0])
        with pytest.raises(ValueError, match="shape mismatch"):
            per_sample_losses(forward(net, x), labels)
        with pytest.raises(ValueError, match="shape mismatch"):
            backward(net, x, labels)

    def test_l2_rejects_probabilities(self, rng):
        """Complex targets against abs-head scores fail the label check."""
        net = build_network([Dense(3, 3), AbsHead(3)], seed=0)
        x = random_complex(rng, 2, 3)
        targets = np.zeros((2, 3), complex)
        with pytest.raises(ValueError, match="one integer per sample"):
            per_sample_losses(forward(net, x), targets)
        with pytest.raises(ValueError, match="one integer per sample"):
            backward(net, x, targets)

    def test_l2_target_shape_checked_in_backward_too(self, rng):
        net = build_network([Dense(3, 2)], seed=0)
        x = random_complex(rng, 4, 3)
        target = np.zeros((1, 2), complex)  # one row for a batch of four
        with pytest.raises(ValueError, match="shape mismatch"):
            per_sample_losses(forward(net, x), target)
        with pytest.raises(ValueError, match="shape mismatch"):
            backward(net, x, target)


class TestSgd:
    def test_plain_step(self):
        net = build_network([Dense(2, 2)], seed=0)
        w0 = net.weights[0].copy()
        g = np.full((2, 2), 0.25 + 0.5j)
        velocities = sgd_init(net)
        sgd_step(net, [g], lr=1.0, momentum=0.0, velocities=velocities)
        npt.assert_allclose(net.weights[0], w0 - g)

    def test_momentum_recursion(self):
        net = build_network([Dense(1, 1)], seed=0)
        g = np.array([[1.0 + 0j]])
        velocities = sgd_init(net)
        w0 = net.weights[0].copy()
        sgd_step(net, [g], lr=0.1, momentum=0.9, velocities=velocities)
        first = w0 - net.weights[0]
        w1 = net.weights[0].copy()
        sgd_step(net, [g], lr=0.1, momentum=0.9, velocities=velocities)
        second = w1 - net.weights[0]
        npt.assert_allclose(first, 0.1 * g)
        npt.assert_allclose(second, 1.9 * 0.1 * g)  # v = 1.9 g after two steps

    def test_zero_grad_fresh_state_no_move(self):
        net = build_network([Dense(2, 2)], seed=1)
        w0 = net.weights[0].copy()
        velocities = sgd_init(net)
        sgd_step(net, [np.zeros((2, 2), complex)], lr=0.5, momentum=0.9, velocities=velocities)
        npt.assert_array_equal(net.weights[0], w0)

    def test_zero_grad_decays_velocity(self):
        net = build_network([Dense(1, 1)], seed=2)
        g = np.array([[2.0 + 1j]])
        velocities = sgd_init(net)
        sgd_step(net, [g], lr=0.1, momentum=0.9, velocities=velocities)
        v1 = velocities[0].copy()
        sgd_step(net, [np.zeros((1, 1), complex)], lr=0.1, momentum=0.9, velocities=velocities)
        npt.assert_allclose(velocities[0], 0.9 * v1)

    def test_validates_hyperparameters(self):
        net = build_network([Dense(1, 1)], seed=0)
        velocities = sgd_init(net)
        with pytest.raises(ValueError):
            sgd_step(net, [None], lr=0.0, momentum=0.5, velocities=velocities)
        with pytest.raises(ValueError):
            sgd_step(net, [None], lr=0.1, momentum=1.0, velocities=velocities)

    def test_rejects_nan_lr_before_any_update(self):
        net = build_network([Dense(3, 2)], seed=0)
        before = net.weights[0].copy()
        velocities = sgd_init(net)
        g = (np.ones((3, 2), complex), np.zeros(2, complex))
        with pytest.raises(ValueError, match="lr must be positive"):
            sgd_step(net, [g], lr=math.nan, momentum=0.0, velocities=velocities)
        npt.assert_array_equal(net.weights[0], before)


class TestDeterminism:
    def test_build_deterministic(self):
        a = build_network([Dense(4, 3, CRELU), Dense(3, 2)], seed=7)
        b = build_network([Dense(4, 3, CRELU), Dense(3, 2)], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            npt.assert_array_equal(wa, wb)

    def test_training_bit_identical(self):
        def run():
            rng = np.random.default_rng(123)
            net = build_network([Dense(4, 3, SPLIT_TANH), Dense(3, 2)], seed=9)
            velocities = sgd_init(net)
            x = random_complex(rng, 16, 4)
            y = random_complex(rng, 16, 2)
            for epoch in range(3):
                order = np.random.default_rng([9, epoch]).permutation(16)
                for start in range(0, 16, 8):
                    idx = order[start : start + 8]
                    grads = backward(net, x[idx], y[idx])
                    sgd_step(net, grads, 0.05, 0.9, velocities)
            return net

        n1, n2 = run(), run()
        for w1, w2 in zip(n1.weights, n2.weights):
            npt.assert_array_equal(w1, w2)


class TestLanes:
    """Forward blocks and the training step's per-sample stages run across
    the lanes; the bytes they produce do not depend on how many lanes there
    are."""

    CONV_FIRST = [
        Conv(3, 3, 1, 3, CRELU), Conv(3, 3, 3, 4, SPLIT_TANH), MaxPoolModulus(2),
        Dense(36, 5, CRELU), Dense(5, 3), AbsHead(3),
    ]
    DENSE = [Dense(6, 7, SPLIT_TANH), Dense(7, 3, CRELU), Dense(3, 2)]
    # the general (non-diagonal) activation backprop, on conv and dense layers
    PHASE = [
        Conv(3, 3, 1, 2, AMP_TANH), Conv(3, 3, 2, 3, Activation("modrelu", b=-0.3)),
        MaxPoolModulus(2), Dense(27, 4, Activation("modrelu", b=-0.3)), Dense(4, 2, AMP_TANH),
        Dense(2, 2),
    ]

    def _case(self, kind, n, rng):
        if kind == "conv":
            net = build_network(self.CONV_FIRST, seed=3)
            x = rng.uniform(0.0, 1.0, size=(n, 10, 10, 1))
            return net, x, rng.integers(0, 3, size=n)
        if kind == "phase":
            net = build_network(self.PHASE, seed=3)
            x = rng.uniform(0.0, 1.0, size=(n, 10, 10, 1))
            return net, x, random_complex(rng, n, 2)
        net = build_network(self.DENSE, seed=3)
        return net, random_complex(rng, n, 6), random_complex(rng, n, 2)

    @pytest.mark.parametrize("kind", ["conv", "dense"])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 127, 128, 129, 300])
    def test_forward_bytes_match_single_lane(self, kind, n, rng, pooled, monkeypatch):
        net, x, _ = self._case(kind, n, rng)
        got = forward(net, x)
        want = single_lane(monkeypatch, forward, net, x)
        assert got.shape[0] == n and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # fixed blocks of the step's size, concatenated in order
        step = network._STEP_BLOCK
        blocks = [forward(net, x[s : s + step]) for s in range(0, n, step)]
        assert np.concatenate(blocks).tobytes() == got.tobytes()

    @staticmethod
    def _assert_same_grads(got, want):
        for g, w in zip(got, want, strict=True):
            assert (g is None) == (w is None)
            if g is not None:
                assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("kind", ["conv", "dense", "phase"])
    @pytest.mark.parametrize("n", [1, 21, 31, 32, 33, 100, 128, 129])
    def test_backward_bytes_match_single_lane(self, kind, n, rng, pooled, monkeypatch):
        """Around the 32-sample step blocks, outside and inside the kept
        store; inside it, after a larger batch has left its values there.
        The blocks also agree, to rounding, with one block of the batch."""
        net, x, y = self._case(kind, n + 40, rng)
        want = single_lane(monkeypatch, backward, net, x[:n], y[:n])
        self._assert_same_grads(backward(net, x[:n], y[:n]), want)
        with monkeypatch.context() as m:
            m.setattr(network, "_STEP_BLOCK", 1 << 30)
            whole = backward(net, x[:n], y[:n])
        for g, w in zip(whole, want):
            if g is not None:
                npt.assert_allclose(g, w, rtol=1e-12, atol=1e-15)
        with network.kept_arrays():
            backward(net, x[::-1], y[::-1])
            self._assert_same_grads(backward(net, x[:n], y[:n]), want)
            kept = single_lane(monkeypatch, backward, net, x[:n], y[:n])
            self._assert_same_grads(kept, want)

    # each on (n, 10, 10, 1) images
    LEVELS_FIRST = {
        "conv": CONV_FIRST,
        "dense": [Dense(100, 6, CRELU), Dense(6, 3, SPLIT_TANH), AbsHead(3)],
        "pool": [MaxPoolModulus(2), Conv(3, 3, 1, 2, CRELU), Dense(18, 3), AbsHead(3)],
    }

    @pytest.mark.parametrize("kind", ["conv", "dense", "pool"])
    @pytest.mark.parametrize("n", [31, 32, 33, 127, 128, 129])
    @pytest.mark.parametrize("lanes_used", ["one", "many"])
    def test_uint8_levels_read_as_their_float_pixels(self, kind, n, lanes_used, rng, pooled,
                                                     monkeypatch):
        """A uint8 batch gives the bytes of its float64 pixels levels / 255.0,
        through forward and backward."""
        net = build_network(self.LEVELS_FIRST[kind], seed=3)
        levels = rng.integers(0, 256, size=(n, 10, 10, 1)).astype(np.uint8)
        pixels = levels.astype(np.float64) / 255.0
        labels = rng.integers(0, 3, size=n)

        def run(fn, *args):
            return single_lane(monkeypatch, fn, *args) if lanes_used == "one" else fn(*args)

        assert run(forward, net, levels).tobytes() == run(forward, net, pixels).tobytes()
        self._assert_same_grads(run(backward, net, levels, labels),
                                run(backward, net, pixels, labels))

    @pytest.mark.parametrize("act", [SPLIT_TANH, CRELU, Activation("modrelu", b=-0.3), AMP_TANH],
                             ids=lambda a: a.kind)
    @pytest.mark.parametrize("n", [1, 33, 100])
    def test_act_backprop_blocks_are_one_whole_batch_backprop(self, act, n, rng, pooled):
        z = rng.standard_normal((n, 2, 3)) + 1j * rng.standard_normal((n, 2, 3))
        z[0, 0] = [0.0, 0.3, 0.3j]  # the origin, modReLU's kink and an axis
        grad = rng.standard_normal(z.shape) + 1j * rng.standard_normal(z.shape)
        saved = network.activations.apply(act, z) if act.diagonal else z
        want = network.activations.backprop(act, saved, grad)
        got = network.act_backprop(act, saved, grad)
        assert got is grad  # in place
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_conv_apply_on_a_slice_is_the_slice_of_apply(self, dtype, rng):
        x = rng.standard_normal((70, 9, 8, 3)).astype(dtype)
        if dtype is np.complex128:
            x += 1j * rng.standard_normal(x.shape)
        k = rng.standard_normal((3, 2, 3, 4)) + 1j * rng.standard_normal((3, 2, 3, 4))
        out, patches = network.conv.apply(x, k)
        assert patches.dtype == dtype
        for a, b in [(0, 32), (32, 64), (64, 70), (5, 37), (69, 70)]:
            o, p = network.conv.apply(x[a:b], k)
            assert o.tobytes() == out[a:b].tobytes() and p.tobytes() == patches[a:b].tobytes()
        # written block by block into given whole-batch arrays, as the step does
        o_all, p_all = np.full_like(out, np.nan), np.full_like(patches, np.nan)
        for a in range(0, 70, 32):
            network.conv.apply(x[a : a + 32], k, o_all[a : a + 32], p_all[a : a + 32])
        assert o_all.tobytes() == out.tobytes() and p_all.tobytes() == patches.tobytes()

    def test_forward_inside_a_pool_task_returns(self, rng, pooled):
        net, x, _ = self._case("conv", 300, rng)
        want = forward(net, x)
        assert lanes.submit(forward, net, x).result(timeout=60).tobytes() == want.tobytes()
        batches = [x, x[:200], x[:129]]
        nested = lanes.run_blocks(functools.partial(forward, net), batches)
        assert [o.tobytes() for o in nested] == [forward(net, b).tobytes() for b in batches]

    def test_forward_blocks_inherit_the_error_state(self, pooled):
        net = Network([Dense(2, 2)], [np.full((2, 2), 1e200 + 0j)], [np.zeros(2, complex)])
        x = np.full((300, 2), 1e200 + 0j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="ignore"):
                for _ in range(20):  # so that the workers take blocks too
                    assert np.isinf(forward(net, x)).all()
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(net, x)


class TestKeptArrays:
    """Inside ``kept_arrays`` backward reuses its whole-batch arrays from one
    call to the next; what it returns stays the caller's."""

    LAYERS = TestLanes.CONV_FIRST

    def _data(self, rng, n):
        return rng.uniform(0.0, 1.0, size=(n, 10, 10, 1)), rng.integers(0, 3, size=n)

    def test_returned_gradients_survive_the_next_step(self, rng):
        net = build_network(self.LAYERS, seed=5)
        x, y = self._data(rng, 256)
        with network.kept_arrays():
            first = backward(net, x[:128], y[:128])
            saved = [None if g is None else [a.tobytes() for a in g] for g in first]
            backward(net, x[128:], y[128:])
            kept = list(network._kept.store.values())
            assert kept
            for g, b in zip(first, saved):
                if g is not None:
                    assert [a.tobytes() for a in g] == b
                    assert not any(np.shares_memory(a, k) for a in g for k in kept)

    def test_a_ragged_batch_after_full_ones_matches_a_fresh_call(self, rng):
        net = build_network(self.LAYERS, seed=6)
        x, y = self._data(rng, 288)
        want = backward(net, x[256:], y[256:])
        with network.kept_arrays():
            backward(net, x[:128], y[:128])
            backward(net, x[128:256], y[128:256])
            got = backward(net, x[256:], y[256:])
        TestLanes._assert_same_grads(got, want)

    def test_nothing_is_kept_after_the_scope(self, rng):
        net = build_network(self.LAYERS, seed=7)
        x, y = self._data(rng, 64)
        assert getattr(network._kept, "store", None) is None
        with network.kept_arrays():
            backward(net, x, y)
            refs = [weakref.ref(a) for a in network._kept.store.values()]
        assert refs and network._kept.store is None
        assert all(r() is None for r in refs)
        with pytest.raises(FloatingPointError), network.kept_arrays():
            backward(net, x, y)
            refs = [weakref.ref(a) for a in network._kept.store.values()]
            raise FloatingPointError("training diverged")
        assert refs and network._kept.store is None
        assert all(r() is None for r in refs)

    def test_forward_never_takes_kept_arrays(self, rng):
        net = build_network(self.LAYERS, seed=8)
        x, y = self._data(rng, 64)
        with network.kept_arrays():
            backward(net, x, y)
            out = forward(net, x)
            assert not any(np.shares_memory(out, a) for a in network._kept.store.values())


class TestPoolIntoPatches:
    """A max pool followed by a conv layer writes its input gradient into
    that conv's im2col patches, dead once the conv's weight gradient is
    formed; where the patches are smaller it keeps a gradient of its own."""

    # conv2's patches: 6*6 positions * 3*3*3 taps = 972 entries per sample,
    # more than the pool's 16*16*3 = 768 inputs
    LARGER = [Conv(3, 3, 1, 3, CRELU), MaxPoolModulus(2), Conv(3, 3, 3, 4, SPLIT_TANH),
              MaxPoolModulus(2), Dense(36, 3), AbsHead(3)]
    # a 1x1 conv after the pool: 8*8*3 = 192 entries, fewer than 768
    SMALLER = [Conv(3, 3, 1, 3, SPLIT_TANH), MaxPoolModulus(2), Conv(1, 1, 3, 2, CRELU),
               Dense(128, 3), AbsHead(3)]

    @pytest.mark.parametrize("layers", [LARGER, SMALLER], ids=["larger", "smaller"])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 128])
    def test_gradient_bytes_hold_in_every_setting(self, layers, n, rng, pooled, monkeypatch):
        net = build_network(layers, seed=4)
        x, y = rng.uniform(0.0, 1.0, size=(n + 40, 18, 18, 1)), rng.integers(0, 3, size=n + 40)
        got = backward(net, x[:n], y[:n])
        with monkeypatch.context() as m:  # the pool's own gradient array, as before the rule
            m.setattr(network, "_pool_dx",
                      lambda pos, shape, caches: network._step_array(pos, "dx", shape, np.complex128))
            want = single_lane(monkeypatch, backward, net, x[:n], y[:n])
        TestLanes._assert_same_grads(got, want)
        TestLanes._assert_same_grads(single_lane(monkeypatch, backward, net, x[:n], y[:n]), want)
        with network.kept_arrays():
            backward(net, x[::-1], y[::-1])  # leaves other values in the store
            TestLanes._assert_same_grads(backward(net, x[:n], y[:n]), want)
            TestLanes._assert_same_grads(single_lane(monkeypatch, backward, net, x[:n], y[:n]), want)
            own_dx = (1, "dx") in network._kept.store
        assert own_dx == (layers is self.SMALLER)

    def test_desk_step_keeps_one_array_per_activated_layer(self, rng):
        layers = config.build_layers(
            "5x5,10; maxpool,2x2; 5x5,20; maxpool,2x2; fc-500; fc-10; abs", CRELU, (28, 28, 1))
        net = build_network(layers, seed=0)
        x, y = rng.uniform(0.0, 1.0, size=(128, 28, 28, 1)), rng.integers(0, 10, size=128)
        with network.kept_arrays():
            backward(net, x, y)
            store = dict(network._kept.store)
        activated = [pos for pos, spec in enumerate(layers) if getattr(spec, "activation", None)]
        assert activated == [0, 2, 4]
        assert not any((pos, "out") in store for pos in activated)
        assert (1, "dx") not in store  # written into conv2's patches
        # 102.9 MB before: an "out" beside each CReLU layer's "pre", and pool1's dx
        assert sum(a.nbytes for a in store.values()) <= 80e6


class TestShapesAndMetadata:
    def test_infer_shapes_conv_stack(self):
        layers = [
            Conv(5, 5, 1, 10, CRELU),
            MaxPoolModulus(2),
            Conv(5, 5, 10, 20, CRELU),
            MaxPoolModulus(2),
            Dense(320, 500, CRELU),
            Dense(500, 10),
            AbsHead(10),
        ]
        shapes = infer_shapes(layers, (28, 28, 1))
        assert shapes[1] == (24, 24, 10)
        assert shapes[2] == (12, 12, 10)
        assert shapes[3] == (8, 8, 20)
        assert shapes[4] == (4, 4, 20)
        assert shapes[-1] == (10,)
        net = build_network(layers, seed=0)
        assert max_width(net, (28, 28, 1)) == 24 * 24 * 10

    def test_abs_head_must_be_last(self):
        with pytest.raises(ValueError, match="final"):
            Network([AbsHead(4), Dense(4, 4)], [None, np.zeros((4, 4), complex)],
                    [None, np.zeros(4, complex)])

    def test_composition_mismatch(self):
        with pytest.raises(ValueError, match="expects"):
            infer_shapes([Dense(4, 3), Dense(4, 2)], (4,))

    @pytest.mark.parametrize(
        "case", ["weight_shape", "pool_with_params", "dense_without_params", "dense_without_threshold"]
    )
    def test_network_checks_parameter_shapes(self, case):
        w, h = np.zeros((3, 2), complex), np.zeros(2, complex)
        layers, weights, thresholds, message = {
            "weight_shape": ([Dense(3, 2)], [w.T], [h], "weight shape"),
            "pool_with_params": ([MaxPoolModulus(2)], [w], [h], "weight shape"),
            "dense_without_params": ([Dense(3, 2)], [None], [None], "weight shape"),
            "dense_without_threshold": ([Dense(3, 2)], [w], [None], "a threshold goes with each weight"),
        }[case]
        with pytest.raises(ValueError, match=message):
            Network(layers, weights, thresholds)

    @pytest.mark.parametrize("value", [0.25, 0.25j, complex(np.nan, 0.0), complex(0.0, np.nan)])
    def test_network_admits_only_zero_thresholds(self, value):
        w = np.zeros((3, 2), complex)
        signed = np.array([complex(-0.0, -0.0), complex(0.0, -0.0)])
        assert Network([Dense(3, 2)], [w], [signed]).thresholds[0].tobytes() == signed.tobytes()
        with pytest.raises(ValueError, match="thresholds must be zero"):
            Network([Dense(3, 2)], [w], [np.array([-0.0, value])])

    def test_network_checks_dense_composition(self):
        with pytest.raises(ValueError, match="dense expects 5 inputs, got 2"):
            Network(
                [Dense(3, 2), Dense(5, 1)],
                [np.zeros((3, 2), complex), np.zeros((5, 1), complex)],
                [np.zeros(2, complex), np.zeros(1, complex)],
            )


# a format-2 file as the format-2 writer saved it: a zero threshold payload
# beside each weight
FORMAT_2_TEXT = (
    '{"format_version":2,"layers":['
    '{"type":"dense","in_dim":2,"out_dim":2,"activation":null}],"params":['
    '{"weight":"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA8D8AAAAAAAAAAA==",'
    '"threshold":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA="}]}\n'
)


class TestCheckpoints:
    def _net(self):
        return build_network(
            [Conv(3, 3, 1, 2, CRELU), MaxPoolModulus(2), Dense(8, 4, CRELU), AbsHead(4)],
            seed=21,
        )

    def test_round_trip_bitwise(self, tmp_path):
        # extreme magnitudes and a modrelu threshold
        extreme = Network(
            [Dense(2, 2, Activation("modrelu", b=-0.25))],
            [np.array([[5e-324 + 1.7976931348623157e308j, -1e-300 + 0.1j],
                       [3.0 - 7e-9j, -2.5e100 + 1j]])],
            [np.zeros(2, complex)],
        )
        # negative zeros in both parts: the sign of zero must survive too
        signed_zeros = Network(
            [Dense(2, 1)],
            [np.array([[complex(-0.0, 0.5)], [complex(0.25, -0.0)]])],
            [np.zeros(1, complex)],
        )
        for net in (self._net(), extreme, signed_zeros):
            path = tmp_path / "ckpt.json"
            save_checkpoint(net, path)
            loaded = load_checkpoint(path)
            assert loaded.layers == net.layers
            for params in ("weights", "thresholds"):
                for pa, pb in zip(getattr(net, params), getattr(loaded, params)):
                    if pa is None:
                        assert pb is None
                    else:
                        assert pa.shape == pb.shape
                        npt.assert_array_equal(
                            np.ascontiguousarray(pa).view(np.uint64),
                            np.ascontiguousarray(pb).view(np.uint64),
                        )

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._net(), path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            save_checkpoint(build_network([Dense(2, 2)], seed=1), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_truncated_file(self, tmp_path):
        net = self._net()
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointError, match="cannot parse checkpoint"):
            load_checkpoint(path)

    def test_shape_mismatch(self, tmp_path):
        net = self._net()
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        short = base64.b64decode(doc["params"][2])[:-16]  # one value too few
        doc["params"][2] = base64.b64encode(short).decode()
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="^layer 2 weight: expected 512 bytes, got 496$"):
            load_checkpoint(path)

    # the dense layer's weight holds 32 values, 512 bytes
    @pytest.mark.parametrize("payload, message", [
        (base64.b64encode(bytes(15)).decode(), "^layer 2 weight: expected 512 bytes, got 15$"),
        (base64.b64encode(bytes(80)).decode(), "^layer 2 weight: expected 512 bytes, got 80$"),
        (base64.b64encode(np.full(32, np.nan, "<c16").tobytes()).decode(), "layer 2 weight: non-finite"),
        # 32 zeros with a character inserted, which a lenient decoder would skip
        ("AAAA*" + base64.b64encode(bytes(512)).decode()[4:], "bad weight payload of layer 2"),
        ("AAA", "bad weight payload of layer 2"),  # padding missing
        ("\u00e9", "bad weight payload of layer 2"),
        (4, "bad weight payload of layer 2"),
        ([0.0, 1.0], "bad weight payload of layer 2"),
        # a format-2 parameter record
        ({"weight": base64.b64encode(bytes(512)).decode()}, "bad weight payload of layer 2"),
    ], ids=["15_bytes", "5_values", "nan", "bad_character", "no_padding", "non_ascii", "number",
            "list", "object"])
    def test_bad_payload(self, tmp_path, payload, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._net(), path)
        doc = json.loads(path.read_text())
        doc["params"][2] = payload
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("in_dim", [0, 2.0, True, "2", None])
    def test_bad_layer_dimension_is_malformed(self, tmp_path, in_dim):
        path = tmp_path / "ckpt.json"
        save_checkpoint(self._net(), path)
        doc = json.loads(path.read_text())
        doc["layers"][2]["in_dim"] = in_dim
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="dense dimensions must be (integers|positive)"):
            load_checkpoint(path)

    @pytest.mark.parametrize("b", ["0.25", True, None])
    def test_activation_b_must_be_a_number(self, tmp_path, b):
        net = build_network([Dense(2, 2, Activation("modrelu", b=-0.25))], seed=1)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["activation"]["b"] = b
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="bad activation record"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        net = self._net()
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="unsupported format_version 99"):
            load_checkpoint(path)

    def test_format_1_is_refused(self, tmp_path):
        # format 1 stored each part as a list of 17-digit decimal floats
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "format_version": 1,
            "layers": [{"type": "dense", "in_dim": 1, "out_dim": 1, "activation": None}],
            "params": [{"weight_re": [1.0], "weight_im": [2.0],
                        "threshold_re": [0.0], "threshold_im": [0.0]}],
        }))
        with pytest.raises(CheckpointError, match="unsupported format_version 1$"):
            load_checkpoint(path)

    def test_format_2_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(FORMAT_2_TEXT)
        with pytest.raises(CheckpointError, match="unsupported format_version 2$"):
            load_checkpoint(path)

    def test_edge_values_round_trip_bitwise(self, tmp_path):
        values = np.array([
            0.1 + 0.25j, complex(-0.0, 5e-324), complex(1.7976931348623157e308, -1.7976931348623157e308),
        ])
        net = Network([Dense(2, 3)], [np.stack([values, values[::-1]])], [np.zeros(3, complex)])
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        saved, read = net.weights[0], load_checkpoint(path).weights[0]
        assert read.tobytes() == saved.tobytes()
        npt.assert_array_equal(np.signbit(read.real), np.signbit(saved.real))
        npt.assert_array_equal(np.signbit(read.imag), np.signbit(saved.imag))

    def test_saved_text_pinned(self, tmp_path):
        # every layer type; a 2x2 weight shows the C order, -0.0 the sign bit
        net = Network(
            [Conv(1, 1, 1, 2, CRELU), MaxPoolModulus(2), Dense(2, 2, Activation("modrelu", b=-0.5)),
             AbsHead(2)],
            [np.array([1.0, complex(-0.0, -2.0)]).reshape(1, 1, 1, 2), None,
             np.array([[1, 2], [3, 4j]]), None],
            [np.zeros(2, complex), None, np.zeros(2, complex), None],
        )
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        text = path.read_text()
        assert text == (
            '{"format_version":3,"layers":['
            '{"type":"conv","kernel_h":1,"kernel_w":1,"in_channels":1,"out_channels":2,'
            '"activation":{"kind":"crelu","b":0.0}},'
            '{"type":"maxpool","window":2},'
            '{"type":"dense","in_dim":2,"out_dim":2,"activation":{"kind":"modrelu","b":-0.5}},'
            '{"type":"abshead","out_classes":2}],"params":['
            '"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAACAAAAAAAAAAMA=",null,'
            '"AAAAAAAA8D8AAAAAAAAAAAAAAAAAAABAAAAAAAAAAAAAAAAAAAAIQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAQQA==",'
            'null]}\n'
        )
        # the same payloads spelled out: (re, im) doubles, little-endian, row by row
        params = json.loads(text)["params"]
        assert base64.b64decode(params[0]) == struct.pack("<4d", 1, 0, -0.0, -2)
        assert base64.b64decode(params[2]) == struct.pack("<8d", 1, 0, 2, 0, 3, 0, 0, 4)

    @pytest.mark.parametrize("value", [complex(np.nan, 0.0), complex(0.0, -np.inf)], ids=["nan", "inf"])
    def test_non_finite_weight_is_refused_before_writing(self, tmp_path, value):
        # the loader refuses such a file, so the writer must not write it
        path = tmp_path / "ckpt.json"
        net = self._net()
        save_checkpoint(net, path)
        before = path.read_bytes()
        net.weights[2][1, 3] = value
        with pytest.raises(ValueError, match="^layer 2 weight: non-finite values$"):
            save_checkpoint(net, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["ckpt.json"]

    def test_nan_activation_record_is_refused(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_bytes(b"old\n")
        act = Activation("modrelu", b=-0.5)
        object.__setattr__(act, "b", math.nan)  # past the spec's own check
        with pytest.raises(ValueError, match="Out of range float values"):
            save_checkpoint(build_network([Dense(2, 2, act)], seed=1), path)
        assert path.read_bytes() == b"old\n"
        assert os.listdir(tmp_path) == ["ckpt.json"]

    # entries per base64 piece of the streamed writer
    _SLICE = network._B64_SLICE // 16

    @pytest.mark.parametrize("shape, layout", [
        ((1, 3), "c"),  # 48 bytes, 0 mod 3
        ((1, 4), "c"),  # 64 bytes, 1 mod 3
        ((1, 5), "c"),  # 80 bytes, 2 mod 3
        ((_SLICE // 4, 4), "c"),  # exactly one piece
        ((_SLICE + 1, 1), "c"),  # one piece and 16 bytes
        ((_SLICE // 2 + 1, 7), "c"),  # three pieces and part of a fourth
        ((_SLICE // 2 + 1, 7), "fortran"),
        ((_SLICE // 2 + 1, 7), "reversed"),
        ((_SLICE // 2 + 1, 7), "float64"),
        ((5, 7), "fortran"),
        ((5, 7), "real_view"),  # strided float64
    ], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v)
    def test_streamed_file_is_one_json_dumps(self, tmp_path, shape, layout):
        rng = np.random.default_rng(7)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        w = {
            "c": w,
            "fortran": np.asfortranarray(w),
            "reversed": w[::-1, ::-1],
            "float64": w.real.copy(),
            "real_view": w.real,
        }[layout]
        assert w.flags.c_contiguous == (layout in ("c", "float64"))
        spec = Dense(*shape, SPLIT_TANH)
        net = Network([spec, AbsHead(shape[1])], [w, None], [np.zeros(shape[1], complex), None])
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        # the oracle: the whole document through one json.dumps
        doc = {
            "format_version": 3,
            "layers": [{"type": "dense", **asdict(spec)}, {"type": "abshead", "out_classes": shape[1]}],
            "params": [base64.b64encode(w.astype("<c16").tobytes()).decode("ascii"), None],
        }
        expected = json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"
        assert path.read_bytes() == expected.encode("ascii")

    def test_save_holds_one_piece_not_the_file(self, tmp_path):
        # dense_teacher's net: 6.4 MB of weights, an 8.6 MB file; building
        # the file in memory took a 24.5 MiB peak
        net = build_network([Dense(256, 512, SPLIT_TANH), Dense(512, 512, SPLIT_TANH), Dense(512, 16)])
        path = tmp_path / "ckpt.json"
        tracemalloc.start()
        try:
            save_checkpoint(net, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 8563663  # the bench's dense_teacher checkpoint
        assert peak < 2 * 2**20

    def test_loaded_weights_are_writable_and_train(self, tmp_path, rng):
        net = build_network([Dense(3, 4, SPLIT_TANH), Dense(4, 2)], seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        for w in loaded.weights + loaded.thresholds:
            assert w.flags.writeable and w.flags.c_contiguous and w.dtype == np.complex128
            assert w.dtype.isnative
        x, y = random_complex(rng, 5, 3), random_complex(rng, 5, 2)
        for each in (net, loaded):
            sgd_step(each, backward(each, x, y), 0.1, 0.9, sgd_init(each))
        for a, b in zip(net.weights, loaded.weights):
            assert a.tobytes() == b.tobytes()


# --- garbage input: the loader raises only CheckpointError ---------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


def _load_text(text):
    """load_checkpoint on ``text``; any error but a CheckpointError escapes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        path.write_text(text)
        try:
            load_checkpoint(path)
        except CheckpointError:
            pass


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


@functools.cache
def _valid_checkpoint_text():
    """A saved (3, 3, 1)-input network with every layer type."""
    net = build_network(
        [
            Conv(2, 2, 1, 2, CRELU), MaxPoolModulus(2), Dense(2, 3, Activation("modrelu", b=-0.5)),
            AbsHead(3),
        ],
        seed=4,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(net, path)
        return path.read_text()


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_checkpoint_loader_on_arbitrary_json(doc):
    _load_text(json.dumps(doc))


B64_GARBAGE = [
    base64.b64encode(bytes(15)).decode(),  # valid base64, not a whole complex128
    # nan at the lengths of the dense weight and the conv weight
    base64.b64encode(np.full(6, np.nan, "<c16").tobytes()).decode(),
    base64.b64encode(np.full(8, np.nan, "<c16").tobytes()).decode(),
    "AA*A",  # invalid characters
    "AAA",
    "\u00e9\u00e9\u00e9\u00e9",
    "",
    3.5,  # not a string
    [1.0, 2.0],
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_checkpoint_loader_on_mutated_checkpoint(data):
    doc = json.loads(_valid_checkpoint_text())
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.just(None) | json_values | st.sampled_from([0, -1, 2.0, True, 10**40])
                      | st.sampled_from(B64_GARBAGE))
    if not path:
        doc = value
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    _load_text(json.dumps(doc))
