"""Dense-net engine: activations, forward/backward, Adam."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtanet import nn


class TestElu:
    def test_fixed_point_zero(self):
        assert nn.elu(0.0) == 0.0

    def test_identity_on_positives(self):
        assert nn.elu(2.0) == 2.0

    def test_saturation_limit(self):
        assert nn.elu(-20.0) == pytest.approx(math.exp(-20.0) - 1.0)
        assert nn.elu(-20.0) == pytest.approx(-1.0, abs=1e-8)

    @given(st.floats(-50, 50), st.floats(-50, 50))
    def test_monotone_and_bounded_below(self, a, b):
        lo, hi = sorted((a, b))
        assert nn.elu(lo) <= nn.elu(hi)
        assert nn.elu(lo) >= -1.0

    def test_grad_is_one_at_zero(self):
        assert nn.elu_grad(0.0) == 1.0

    def test_no_overflow_on_large_positive(self):
        assert np.isfinite(nn.elu(1e4))
        assert np.isfinite(nn.elu_grad(1e4))


def where_elu(x):
    """ELU as the masked select it is defined by; the reference for nn.elu."""
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, x, np.expm1(np.minimum(x, 0.0)))


def where_elu_grad(x):
    x = np.asarray(x, dtype=float)
    return np.where(x >= 0.0, 1.0, np.exp(np.minimum(x, 0.0)))


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# signed zeros, signed subnormals, infinities, quiet NaNs of both signs and a
# payload, a signalling NaN, expm1's and exp's underflow edge, huge values
SPECIALS = np.concatenate([
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
     np.inf, -np.inf, np.nan, -np.nan, -745.0, -746.0, -1e-17, 1e308, -1e308],
    np.array([0x7FF8000000000123, 0xFFF8000000000456, 0x7FF0000000000001],
             dtype=np.uint64).view(np.float64)])


@pytest.mark.filterwarnings("ignore:invalid value")
class TestEluBits:
    """nn.elu and nn.elu_grad equal the masked-select definitions bit for bit."""

    @pytest.mark.parametrize("fn, ref", [(nn.elu, where_elu), (nn.elu_grad, where_elu_grad)])
    def test_specials(self, fn, ref):
        assert_same_bits(fn(SPECIALS), ref(SPECIALS))

    def test_signed_zero(self):
        assert np.signbit(nn.elu(-0.0)) and not np.signbit(nn.elu(0.0))
        assert nn.elu_grad(-0.0) == nn.elu_grad(0.0) == 1.0

    @pytest.mark.parametrize("scale", [1e-25, 1e-8, 1e-2, 1.0, 1e2])
    @pytest.mark.parametrize("fn, ref", [(nn.elu, where_elu), (nn.elu_grad, where_elu_grad)])
    def test_random_arrays(self, fn, ref, scale):
        rng = np.random.default_rng(int(-np.log10(scale)) + 30)
        for _ in range(20):
            x = rng.standard_normal((64, 200)) * scale
            assert_same_bits(fn(x), ref(x))
            assert_same_bits(fn(x.T[::3]), ref(x.T[::3]))   # a strided view

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.5, -1.5, -5e-324, np.nan])
    @pytest.mark.parametrize("fn, ref", [(nn.elu, where_elu), (nn.elu_grad, where_elu_grad)])
    def test_scalar_and_zero_dimensional(self, fn, ref, value):
        for x in (value, np.float64(value), np.array(value)):
            assert_same_bits(fn(x), ref(x))

    def test_input_left_alone(self):
        x = SPECIALS.copy()
        nn.elu(x)
        nn.elu_grad(x)
        assert_same_bits(x, SPECIALS)


def reference_forward(net, x):
    """The forward pass with out-of-place bias and masked-select ELU."""
    h, tape = np.asarray(x, dtype=float), []
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        pre = h @ w.T + b
        tape.append((h, pre))
        h = pre if k == net.n_layers - 1 else where_elu(pre)
    return h, tape


def reference_backward(net, tape, upstream):
    grads, g = [None] * (2 * net.n_layers), upstream
    for k in range(net.n_layers - 1, -1, -1):
        h_in, pre = tape[k]
        d_pre = g if k == net.n_layers - 1 else g * where_elu_grad(pre)
        grads[2 * k] = d_pre.T @ h_in
        grads[2 * k + 1] = d_pre.sum(axis=0)
        g = d_pre @ net.weights[k]
    return grads, g


class TestDenseNetBits:
    @pytest.mark.parametrize("dims", [[100, 200, 200, 1], [25, 32, 32, 32], [6, 4, 4]])
    def test_forward_and_backward_match_reference(self, dims):
        rng = np.random.default_rng(len(dims) * 1000 + dims[1])
        net = nn.init_dense(dims, rng)
        for w, b in zip(net.weights, net.biases):   # nonzero biases
            b += rng.standard_normal(b.shape)
        for _ in range(5):
            X = rng.standard_normal((64, dims[0])) * 3.0
            up = rng.standard_normal((64, dims[-1]))
            out, tape = net.forward(X)
            ref_out, ref_tape = reference_forward(net, X)
            assert_same_bits(out, ref_out)
            for (h, pre), (ref_h, ref_pre) in zip(tape, ref_tape):
                assert_same_bits(h, ref_h)
                assert_same_bits(pre, ref_pre)
            grads, g_in = net.backward(tape, up)
            ref_grads, ref_g_in = reference_backward(net, ref_tape, up)
            for got, want in zip(grads, ref_grads):
                assert_same_bits(got, want)
            assert_same_bits(g_in, ref_g_in)


def naive_forward(net, x):
    """Independent straight-line re-evaluation, one sample at a time."""
    h = list(x)
    for k, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for i in range(w.shape[0]):
            acc = b[i]
            for j in range(w.shape[1]):
                acc += w[i, j] * h[j]
            out.append(acc)
        if k < net.n_layers - 1:
            out = [v if v >= 0 else math.exp(v) - 1.0 for v in out]
        h = out
    return np.array(h)


class TestForward:
    def test_identity_net_on_positive_input(self):
        net = nn.DenseNet([np.eye(3)], [np.zeros(3)])
        out, _ = net.forward(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])

    def test_single_layer_affine(self):
        net = nn.DenseNet([np.array([[2.0]])], [np.array([1.0])])
        out, tape = net.forward(np.array([[3.0]]))
        assert out[0, 0] == 7.0
        assert tape[0][1][0, 0] == 7.0

    def test_matches_naive_reevaluation(self):
        rng = np.random.default_rng(7)
        net = nn.init_dense([4, 5, 3], rng)
        X = rng.standard_normal((6, 4))
        out, _ = net.forward(X)
        for i in range(6):
            np.testing.assert_allclose(out[i], naive_forward(net, X[i]), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        net = nn.DenseNet([np.eye(3)], [np.zeros(3)])
        with pytest.raises(ValueError):
            net.forward(np.ones((2, 4)))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        net = nn.init_dense([4, 4, 2], rng)
        X = rng.standard_normal((5, 4))
        a, _ = net.forward(X)
        b, _ = net.forward(X)
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(0)
        net = nn.init_dense([3, 4, 2], rng)
        X = rng.standard_normal((5, 3))
        _, tape = net.forward(X)
        grads, g_in = net.backward(tape, np.zeros((5, 2)))
        for g in grads:
            assert not np.any(g)
        assert not np.any(g_in)

    def test_linear_layer_closed_form(self):
        net = nn.DenseNet([np.array([[1.0, 2.0]])], [np.array([0.0])])
        x = np.array([[3.0, 4.0]])
        _, tape = net.forward(x)
        up = np.array([[2.0]])
        grads, g_in = net.backward(tape, up)
        np.testing.assert_allclose(grads[0], up.T @ x)  # outer product
        np.testing.assert_allclose(grads[1], [2.0])
        np.testing.assert_allclose(g_in, [[2.0, 4.0]])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = nn.init_dense([3, 5, 4, 2], rng)
        X = rng.standard_normal((4, 3))
        up = rng.standard_normal((4, 2))

        def scalar(n):
            out, _ = n.forward(X)
            return float(np.sum(out * up))

        _, tape = net.forward(X)
        grads, _ = net.backward(tape, up)
        eps = 1e-5
        for pi, p in enumerate(net.params()):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + eps
                hi = scalar(net)
                p[ix] = orig - eps
                lo = scalar(net)
                p[ix] = orig
                fd = (hi - lo) / (2 * eps)
                assert grads[pi][ix] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        net = nn.init_dense([3, 2], rng)
        _, tape = net.forward(rng.standard_normal((4, 3)))
        with pytest.raises(ValueError):
            net.backward(tape, np.zeros((4, 3)))


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        params = [np.array([1.0, 2.0])]
        state = nn.adam_init(params)
        nn.adam_step(state, params, [np.zeros(2)])
        np.testing.assert_array_equal(params[0], [1.0, 2.0])
        assert state.step == 1

    def test_first_step_moves_by_alpha(self):
        # bias correction makes the first update ~ -alpha * sign(g)
        params = [np.array([0.5])]
        state = nn.adam_init(params, alpha=0.1)
        nn.adam_step(state, params, [np.array([3.0])])
        assert params[0][0] == pytest.approx(0.5 - 0.1, abs=1e-6)

    def test_descends_quadratic(self):
        params = [np.array([1.0])]
        state = nn.adam_init(params, alpha=0.1)
        best = 1.0
        for _ in range(10):
            g = 2.0 * params[0]
            nn.adam_step(state, params, [g.copy()])
            best = min(best, float(params[0][0] ** 2))
        assert best < 1.0

    def test_non_finite_gradient_raises(self):
        params = [np.array([1.0])]
        state = nn.adam_init(params)
        with pytest.raises(FloatingPointError):
            nn.adam_step(state, params, [np.array([np.nan])])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_moves_nothing(self, bad):
        # the last parameter of the last block carries the bad entry, so
        # every other block would already have been updated by a one-pass loop
        net = nn.init_dense([100, 200, 200, 1], np.random.default_rng(0))
        params = net.params()
        state = nn.adam_init(params)
        grads = [np.ones_like(p) for p in params]
        nn.adam_step(state, params, grads)
        before = [p.copy() for p in params]
        m, v = state.m.copy(), state.v.copy()
        grads[-1][0] = bad
        with pytest.raises(FloatingPointError):
            nn.adam_step(state, params, grads)
        for a, b in zip(before, params):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.step == 1

    def test_accumulators_start_at_zero(self):
        params = [np.ones((2, 2)), np.ones(3), np.ones((300, 200))]
        state = nn.adam_init(params)
        assert state.step == 0
        assert state.m.shape == state.v.shape == (sum(p.size for p in params),)
        assert not np.any(state.m)
        assert not np.any(state.v)

    @pytest.mark.parametrize("width", [32, 200])
    def test_bit_identical_to_per_array_reference(self, width):
        """Blocked flat updates equal the per-array formula bit for bit."""
        rng = np.random.default_rng(width)
        net = nn.init_dense([100, width, width, 1], rng)
        params = net.params()
        ref = [p.copy() for p in params]
        alpha, beta1, beta2, eps = 1e-3, 0.8, 0.95, 1e-8
        state = nn.adam_init(params, alpha, beta1, beta2, eps)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 51):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                     for p in params]
            nn.adam_step(state, params, grads)
            bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            for p, g, mk, vk in zip(ref, grads, m, v):
                mk *= beta1
                mk += (1.0 - beta1) * g
                vk *= beta2
                vk += (1.0 - beta2) * g * g
                p -= alpha * (mk / bc1) / (np.sqrt(vk / bc2) + eps)
        for got, want in zip(params, ref):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.m, np.concatenate([x.ravel() for x in m]))
        np.testing.assert_array_equal(state.v, np.concatenate([x.ravel() for x in v]))

    def test_small_parameters_share_a_block(self):
        # blocks hold up to 256 KiB: the 200x100 weight (160 KB) and its bias
        # fit one; the 200x200 weight (320 KB) is a block alone; the next
        # bias, the 1x200 weight and the last bias pack into one
        net = nn.init_dense([100, 200, 200, 1], np.random.default_rng(1))
        state = nn.adam_init(net.params())
        spans = [(blk.first, blk.stop) for blk in state.blocks]
        assert spans == [(0, 2), (2, 3), (3, 6)]
