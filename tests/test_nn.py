"""Dense-net engine: activations, forward/backward, Adam."""

import math
import tracemalloc

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
            grad, g_in = net.backward(tape, up)
            ref_grads, ref_g_in = reference_backward(net, ref_tape, up)
            for got, want in zip(net.split(grad), ref_grads, strict=True):
                assert_same_bits(got, want)
            assert_same_bits(g_in, ref_g_in)
            skipped, none = net.backward(tape, up, input_grad=False)
            assert none is None
            for got, want in zip(net.split(skipped), ref_grads, strict=True):
                assert_same_bits(got, want)


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
        grad, g_in = net.backward(tape, np.zeros((5, 2)))
        assert grad.shape == net.theta.shape
        assert not np.any(grad)
        assert not np.any(g_in)

    def test_linear_layer_closed_form(self):
        net = nn.DenseNet([np.array([[1.0, 2.0]])], [np.array([0.0])])
        x = np.array([[3.0, 4.0]])
        _, tape = net.forward(x)
        up = np.array([[2.0]])
        grad, g_in = net.backward(tape, up)
        grads = net.split(grad)
        np.testing.assert_allclose(grads[0], up.T @ x)  # outer product
        np.testing.assert_allclose(grads[1], [2.0])
        np.testing.assert_allclose(g_in, [[2.0, 4.0]])
        skipped, none = net.backward(tape, up, input_grad=False)
        assert none is None
        assert_same_bits(skipped, grad)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        net = nn.init_dense([3, 5, 4, 2], rng)
        X = rng.standard_normal((4, 3))
        up = rng.standard_normal((4, 2))

        def scalar(n):
            out, _ = n.forward(X)
            return float(np.sum(out * up))

        _, tape = net.forward(X)
        grad, _ = net.backward(tape, up)
        grads = net.split(grad)
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


class TestFlatLayout:
    """Each net's parameters live in one flat vector, theta."""

    def test_views_share_theta_in_params_order(self):
        net = nn.init_dense([5, 4, 3, 2], np.random.default_rng(0))
        for p in net.weights + net.biases + net.params():
            assert np.shares_memory(p, net.theta)
        net.theta[:] = np.arange(net.theta.size)
        np.testing.assert_array_equal(
            np.concatenate([p.ravel() for p in net.params()]), net.theta)
        assert [p.shape for p in net.params()] == [(4, 5), (4,), (3, 4), (3,), (2, 3), (2,)]
        net.biases[1] += 1.0
        assert net.theta[20 + 4 + 12] == 37.0

    def test_backward_returns_a_fresh_buffer_each_call(self):
        net = nn.init_dense([3, 4, 2], np.random.default_rng(1))
        X = np.random.default_rng(2).standard_normal((5, 3))
        _, tape = net.forward(X)
        first, _ = net.backward(tape, np.ones((5, 2)))
        kept = first.copy()
        second, _ = net.backward(tape, np.ones((5, 2)))
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, net.theta)
        assert_same_bits(first, kept)
        assert_same_bits(second, kept)

    def test_constructor_and_copy_copy_their_inputs(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        net = nn.DenseNet([w], [b])
        w += 1.0
        b += 1.0
        for p in (net.theta, *net.params()):
            assert not np.shares_memory(p, w) and not np.shares_memory(p, b)
        np.testing.assert_array_equal(net.theta, [1.0] * 6 + [0.0] * 2)
        np.testing.assert_array_equal(net.forward(np.ones((1, 3)))[0], [[3.0, 3.0]])
        twin = net.copy()
        assert not np.shares_memory(twin.theta, net.theta)
        twin.theta += 1.0
        np.testing.assert_array_equal(net.theta, [1.0] * 6 + [0.0] * 2)


class TestAllocationFree:
    """The no-tape forward and backward's out= buffer give the same bits."""

    @pytest.mark.parametrize("dims",
                             [[100, 200, 200, 1], [25, 32, 32, 32], [6, 4, 4], [3, 2]])
    def test_forward_without_tape_gives_the_taped_bits(self, dims):
        rng = np.random.default_rng(dims[1])
        net = nn.init_dense(dims, rng)
        for b in net.biases:
            b += rng.standard_normal(b.shape)
        X = rng.standard_normal((300, dims[0])) * 3.0
        kept = X.copy()
        taped, tape = net.forward(X)
        out, none = net.forward(X, tape=False)
        assert none is None and len(tape) == net.n_layers
        assert_same_bits(out, taped)
        assert_same_bits(X, kept)

    def test_forward_without_tape_keeps_two_layer_outputs_alive(self):
        rows, width = 1000, 200
        net = nn.init_dense([50, width, width, width, width], np.random.default_rng(4))
        X = np.random.default_rng(5).standard_normal((rows, 50))
        peaks = []
        for tape in (False, True):
            tracemalloc.start()
            try:
                net.forward(X, tape=tape)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        layer = rows * width * 8
        assert peaks[0] < 2 * layer + 64 * 1024
        assert peaks[1] > 6 * layer

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_backward_into_out_returns_it_with_the_allocating_bits(self, input_grad):
        rng = np.random.default_rng(12)
        net = nn.init_dense([7, 9, 9, 3], rng)
        X, up = rng.standard_normal((20, 7)), rng.standard_normal((20, 3))
        _, tape = net.forward(X)
        want, want_in = net.backward(tape, up, input_grad=input_grad)
        buf = np.full_like(net.theta, np.nan)
        got, got_in = net.backward(tape, up, input_grad=input_grad, out=buf)
        assert got is buf
        assert_same_bits(got, want)
        if input_grad:
            assert_same_bits(got_in, want_in)
        else:
            assert got_in is None

    @pytest.mark.parametrize("out",
                             [np.empty(3), np.empty(200), np.empty(50, dtype=np.float32)])
    def test_backward_rejects_an_out_of_another_layout(self, out):
        net = nn.init_dense([5, 6, 2], np.random.default_rng(0))   # 50 parameters
        _, tape = net.forward(np.ones((4, 5)))
        with pytest.raises(ValueError, match="length 50"):
            net.backward(tape, np.ones((4, 2)), out=out)


def flat(arrays):
    return np.concatenate([np.ravel(a) for a in arrays])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        theta = np.array([1.0, 2.0])
        state = nn.adam_init(theta)
        nn.adam_step(state, theta, np.zeros(2))
        np.testing.assert_array_equal(theta, [1.0, 2.0])
        assert state.step == 1

    def test_first_step_moves_by_alpha(self):
        # bias correction makes the first update ~ -alpha * sign(g)
        theta = np.array([0.5])
        state = nn.adam_init(theta, alpha=0.1)
        nn.adam_step(state, theta, np.array([3.0]))
        assert theta[0] == pytest.approx(0.5 - 0.1, abs=1e-6)

    def test_descends_quadratic(self):
        theta = np.array([1.0])
        state = nn.adam_init(theta, alpha=0.1)
        best = 1.0
        for _ in range(10):
            nn.adam_step(state, theta, 2.0 * theta)
            best = min(best, float(theta[0] ** 2))
        assert best < 1.0

    def test_non_finite_gradient_raises(self):
        theta = np.array([1.0])
        state = nn.adam_init(theta)
        with pytest.raises(FloatingPointError):
            nn.adam_step(state, theta, np.array([np.nan]))

    def test_length_mismatch_rejected(self):
        theta = np.ones(3)
        state = nn.adam_init(theta)
        with pytest.raises(ValueError):
            nn.adam_step(state, theta, np.ones(4))
        with pytest.raises(ValueError):
            nn.adam_step(state, np.ones(4), np.ones(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_moves_nothing(self, bad):
        # the last entry of the last slice carries the bad entry, so every
        # other slice would already have been updated by a one-pass loop
        net = nn.init_dense([100, 200, 200, 1], np.random.default_rng(0))
        theta = net.theta
        state = nn.adam_init(theta)
        grad = np.ones_like(theta)
        nn.adam_step(state, theta, grad)
        before = theta.copy()
        m, v = state.m.copy(), state.v.copy()
        grad[-1] = bad
        with pytest.raises(FloatingPointError):
            nn.adam_step(state, theta, grad)
        np.testing.assert_array_equal(theta, before)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.step == 1

    def test_accumulators_start_at_zero(self):
        theta = np.ones(4 + 3 + 300 * 200)
        state = nn.adam_init(theta)
        assert state.step == 0
        assert state.m.shape == state.v.shape == theta.shape
        assert not np.any(state.m)
        assert not np.any(state.v)

    @pytest.mark.parametrize("dims", [pytest.param([100, 32, 32, 1], id="32"),
                                      pytest.param([100, 200, 200, 1], id="200"),
                                      pytest.param([327, 200], id="ragged")])
    def test_bit_identical_to_per_array_reference(self, dims):
        """Sliced flat updates equal the per-array formula bit for bit."""
        rng = np.random.default_rng(dims[1] + len(dims))
        net = nn.init_dense(dims, rng)
        if len(dims) == 2:
            # more than two slices, the last one ragged
            block = nn._BLOCK_BYTES // 8
            assert net.theta.size > 2 * block and net.theta.size % block
        params = net.params()
        ref = [p.copy() for p in params]
        alpha, beta1, beta2, eps = 1e-3, 0.8, 0.95, 1e-8
        state = nn.adam_init(net.theta, alpha, beta1, beta2, eps)
        m = [np.zeros_like(p) for p in ref]
        v = [np.zeros_like(p) for p in ref]
        for t in range(1, 51):
            grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3)
                     for p in params]
            nn.adam_step(state, net.theta, flat(grads))
            bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            for p, g, mk, vk in zip(ref, grads, m, v):
                mk *= beta1
                mk += (1.0 - beta1) * g
                vk *= beta2
                vk += (1.0 - beta2) * g * g
                p -= alpha * (mk / bc1) / (np.sqrt(vk / bc2) + eps)
        for got, want in zip(params, ref):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(state.m, flat(m))
        np.testing.assert_array_equal(state.v, flat(v))
