"""Entropic transport: cost matrices, Sinkhorn, gradients, 1-D Wasserstein."""

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.special import logsumexp
from scipy.stats import wasserstein_distance

from dtanet import ot


def lp_transport_optimum(C, p, q):
    """Exact optimal transport cost by linear programming (tiny instances)."""
    n_c, n_t = C.shape
    A_eq = []
    for i in range(n_c):
        row = np.zeros(n_c * n_t)
        row[i * n_t:(i + 1) * n_t] = 1.0
        A_eq.append(row)
    for j in range(n_t):
        row = np.zeros(n_c * n_t)
        row[j::n_t] = 1.0
        A_eq.append(row)
    res = linprog(C.ravel(), A_eq=np.array(A_eq), b_eq=np.concatenate([p, q]),
                  bounds=(0, None), method="highs")
    assert res.success
    return res.fun


class TestCostMatrix:
    def test_three_four_five(self):
        C = ot.cost_matrix([[0.0, 0.0]], [[3.0, 4.0]])
        np.testing.assert_allclose(C, [[25.0]])

    def test_identical_rows(self):
        np.testing.assert_allclose(ot.cost_matrix([[1.0, 2.0]], [[1.0, 2.0]]), [[0.0]])

    def test_two_by_one(self):
        C = ot.cost_matrix([[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0]])
        np.testing.assert_allclose(C, [[2.0], [0.0]])

    def test_swap_transposes(self):
        rng = np.random.default_rng(0)
        A, B = rng.standard_normal((3, 2)), rng.standard_normal((4, 2))
        np.testing.assert_allclose(ot.cost_matrix(A, B), ot.cost_matrix(B, A).T)

    def test_column_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ot.cost_matrix(np.ones((2, 2)), np.ones((2, 3)))


class TestSinkhorn:
    def test_single_coupling(self):
        plan = ot.sinkhorn(np.array([[4.2]]), reg=1.0)
        np.testing.assert_allclose(plan.gamma, [[1.0]])
        assert ot.transport_cost(np.array([[4.2]]), plan) == pytest.approx(4.2)

    def test_zero_cost_gives_maximum_entropy_plan(self):
        plan = ot.sinkhorn(np.zeros((2, 2)), reg=1.0)
        np.testing.assert_allclose(plan.gamma, np.full((2, 2), 0.25))

    def test_sharp_regularization_recovers_lp(self):
        C = np.array([[0.0, 1.0], [1.0, 0.0]])
        plan = ot.sinkhorn(C, reg=50.0, tol=1e-10)
        cost = ot.transport_cost(C, plan)
        assert cost == pytest.approx(0.0, abs=1e-2)
        np.testing.assert_allclose(plan.gamma, np.diag([0.5, 0.5]), atol=1e-2)

    def test_marginal_feasibility(self):
        rng = np.random.default_rng(5)
        C = rng.uniform(0, 3, size=(4, 3))
        plan = ot.sinkhorn(C, reg=5.0, tol=1e-8)
        assert plan.converged
        assert plan.residual < 1e-8
        np.testing.assert_array_equal(plan.p, np.full(4, 1 / 4))
        np.testing.assert_array_equal(plan.q, np.full(3, 1 / 3))
        np.testing.assert_allclose(plan.gamma.sum(axis=1), plan.p, atol=1e-7)
        np.testing.assert_allclose(plan.gamma.sum(axis=0), plan.q, atol=1e-7)
        assert np.all(plan.gamma >= 0)
        assert plan.gamma.sum() == pytest.approx(1.0, abs=1e-9)

    def test_entropic_gap_bound(self):
        rng = np.random.default_rng(9)
        C = rng.uniform(0, 2, size=(3, 3))
        reg = 50.0
        plan = ot.sinkhorn(C, reg=reg, tol=1e-10, max_iter=5000)
        cost = ot.transport_cost(C, plan)
        exact = lp_transport_optimum(C, plan.p, plan.q)
        assert exact - 1e-9 <= cost <= exact + plan.entropy() / reg + 1e-6

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        Z_c = rng.standard_normal((4, 2))
        Z_t = rng.standard_normal((3, 2))
        perm = np.array([2, 0, 3, 1])
        plan = ot.sinkhorn(ot.cost_matrix(Z_c, Z_t), reg=3.0, tol=1e-10)
        plan_p = ot.sinkhorn(ot.cost_matrix(Z_c[perm], Z_t), reg=3.0, tol=1e-10)
        np.testing.assert_allclose(plan_p.gamma, plan.gamma[perm], atol=1e-12)

    def test_identical_clouds_have_near_zero_cost(self):
        rng = np.random.default_rng(4)
        Z = rng.standard_normal((3, 2))
        C = ot.cost_matrix(Z, Z)
        plan = ot.sinkhorn(C, reg=100.0, tol=1e-10, max_iter=5000)
        floor = ot.transport_cost(np.zeros_like(C), ot.sinkhorn(np.zeros_like(C), reg=100.0))
        assert ot.transport_cost(C, plan) <= floor + plan.entropy() / 100.0 + 1e-9

    def test_plain_scaling_solver_is_gone(self):
        with pytest.raises(ValueError, match="log_domain"):
            ot.sinkhorn(np.ones((2, 2)), reg=1.0, log_domain=False)

    def test_log_domain_survives_large_products(self):
        C = np.array([[0.0, 1e4], [1e4, 0.0]])
        plan = ot.sinkhorn(C, reg=1.0, tol=1e-9)
        assert plan.converged
        np.testing.assert_allclose(plan.gamma, np.diag([0.5, 0.5]), atol=1e-9)

    def test_non_finite_cost_rejected(self):
        with pytest.raises(ValueError):
            ot.sinkhorn(np.array([[np.inf]]), reg=1.0)

    def test_unconverged_plan_is_still_returned(self):
        rng = np.random.default_rng(1)
        C = rng.uniform(0, 3, size=(5, 4))
        plan = ot.sinkhorn(C, reg=5.0, max_iter=1, tol=1e-14)
        assert not plan.converged
        assert plan.iterations == 1
        assert np.isfinite(plan.residual)


def reference_sinkhorn(C, reg, p, q, max_iter, tol):
    """The log-domain iterations written with scipy's logsumexp, gamma formed by exp."""
    logK = -reg * C
    log_p, log_q = np.log(p), np.log(q)
    f = np.zeros(C.shape[0])
    for it in range(1, max_iter + 1):
        g = log_q - logsumexp(logK + f[:, None], axis=0)
        f = log_p - logsumexp(logK + g[None, :], axis=1)
        gamma = np.exp(f[:, None] + logK + g[None, :])
        residual = max(np.max(np.abs(gamma.sum(axis=1) - p)),
                       np.max(np.abs(gamma.sum(axis=0) - q)))
        if residual < tol:
            break
    return gamma, it


class TestSinkhornReference:
    """The inline log-sum-exp iterations against the scipy reference above."""

    @pytest.mark.parametrize("reg, scale, max_iter", [
        (5.0, 3.0, 1000),       # ordinary instance
        (1.0, 1e4, 1000),       # reg * C about 1e4: the kernel underflows
        (5.0, 3.0, 1),          # one iteration, unconverged
    ])
    def test_matches_logsumexp_reference(self, reg, scale, max_iter):
        rng = np.random.default_rng(13)
        for n_c, n_t in ((1, 1), (1, 5), (4, 3), (7, 7), (64, 40)):
            C = rng.uniform(0.0, scale, size=(n_c, n_t))
            p, q = np.full(n_c, 1 / n_c), np.full(n_t, 1 / n_t)
            want, iters = reference_sinkhorn(C, reg, p, q, max_iter, 1e-9)
            plan = ot.sinkhorn(C, reg, max_iter=max_iter, tol=1e-9)
            assert plan.iterations == iters
            np.testing.assert_allclose(plan.gamma, want, rtol=0, atol=1e-12)
            col = np.max(np.abs(plan.gamma.sum(axis=0) - q))
            assert plan.residual == pytest.approx(col, abs=1e-15)

    def test_row_marginal_exact_after_every_iteration(self):
        rng = np.random.default_rng(14)
        C = rng.uniform(0, 3, size=(6, 9))
        for max_iter in (1, 2, 5):
            plan = ot.sinkhorn(C, 5.0, max_iter=max_iter, tol=1e-14)
            np.testing.assert_allclose(plan.gamma.sum(axis=1), np.full(6, 1 / 6),
                                       rtol=1e-14, atol=0)

    def test_bad_max_iter_rejected(self):
        with pytest.raises(ValueError):
            ot.sinkhorn(np.ones((2, 2)), reg=1.0, max_iter=0)


class TestTransportCost:
    def test_zero_cost_matrix(self):
        plan = ot.sinkhorn(np.zeros((2, 3)), reg=1.0)
        assert ot.transport_cost(np.zeros((2, 3)), plan) == 0.0

    def test_single_cell(self):
        plan = ot.sinkhorn(np.array([[7.0]]), reg=1.0)
        assert ot.transport_cost(np.array([[7.0]]), plan) == pytest.approx(7.0)

    def test_shape_mismatch(self):
        plan = ot.sinkhorn(np.zeros((2, 2)), reg=1.0)
        with pytest.raises(ValueError):
            ot.transport_cost(np.zeros((3, 2)), plan)


class TestBalancingGradient:
    def test_coincident_diagonal_plan_zero_gradient(self):
        Z = np.array([[1.0, 2.0], [3.0, 4.0]])
        plan = ot.TransportPlan(gamma=np.diag([0.5, 0.5]), p=np.full(2, 0.5),
                                q=np.full(2, 0.5), iterations=0, residual=0.0,
                                converged=True)
        d_c, d_t = ot.balancing_gradient(plan, Z, Z)
        np.testing.assert_allclose(d_c, 0.0, atol=1e-15)
        np.testing.assert_allclose(d_t, 0.0, atol=1e-15)

    def test_single_pair_closed_form(self):
        plan = ot.TransportPlan(gamma=np.array([[1.0]]), p=np.ones(1), q=np.ones(1),
                                iterations=0, residual=0.0, converged=True)
        d_c, d_t = ot.balancing_gradient(plan, [[0.0]], [[1.0]])
        assert d_c[0, 0] == pytest.approx(-2.0)
        assert d_t[0, 0] == pytest.approx(2.0)

    def test_matches_finite_differences_with_frozen_plan(self):
        rng = np.random.default_rng(8)
        Z_c = rng.standard_normal((3, 2))
        Z_t = rng.standard_normal((4, 2))
        plan = ot.sinkhorn(ot.cost_matrix(Z_c, Z_t), reg=2.0, tol=1e-10)
        d_c, d_t = ot.balancing_gradient(plan, Z_c, Z_t)
        eps = 1e-6
        for M, grad in ((Z_c, d_c), (Z_t, d_t)):
            it = np.nditer(M, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = M[ix]
                M[ix] = orig + eps
                hi = ot.transport_cost(ot.cost_matrix(Z_c, Z_t), plan)
                M[ix] = orig - eps
                lo = ot.transport_cost(ot.cost_matrix(Z_c, Z_t), plan)
                M[ix] = orig
                assert grad[ix] == pytest.approx((hi - lo) / (2 * eps), rel=1e-4, abs=1e-9)


class TestWasserstein1d:
    def test_identical_samples(self):
        assert ot.wasserstein_1d([0.0, 1.0], [0.0, 1.0]) == 0.0

    def test_point_masses(self):
        assert ot.wasserstein_1d([0.0], [1.0]) == pytest.approx(1.0)

    def test_quantile_coupling(self):
        # couples 0->0 and 0->2, total moved mass 0.5 * 2 = 1
        assert ot.wasserstein_1d([0.0, 0.0], [0.0, 2.0]) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ot.wasserstein_1d([], [1.0])

    def test_bit_identical_to_scipy(self):
        # sizes 1-59, scales 1e-5 to 1e5, a third of the pairs drawn from a
        # handful of values, signed zeros among them, so that ties occur
        # within and across the lists
        rng = np.random.default_rng(20)
        for k in range(20000):
            n_a, n_b = rng.integers(1, 60, size=2)
            scale = 10.0 ** rng.uniform(-5, 5)
            if k % 3 == 0:
                values = np.concatenate([rng.standard_normal(4) * scale, [0.0, -0.0]])
                a, b = rng.choice(values, n_a), rng.choice(values, n_b)
            else:
                a = rng.standard_normal(n_a) * scale
                b = rng.standard_normal(n_b) * scale + rng.standard_normal() * scale
            got, want = ot.wasserstein_1d(a, b), wasserstein_distance(a, b)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), \
                (k, got, want)
