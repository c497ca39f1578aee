"""Entropic optimal transport between representation clouds.

Cost matrices are squared Euclidean distances between rows. The Sinkhorn
solver works in the log domain (dual potentials f, g and a max-shifted
log-sum-exp), so it survives any finite reg * C product without underflow;
see Schmitzer 2019, "Stabilized sparse scaling algorithms for entropy
regularized transport problems". The balancing gradient treats the coupling
as a constant (envelope rule) and differentiates the cost matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TransportPlan:
    """Coupling gamma with its marginals and convergence diagnostics."""

    gamma: np.ndarray        # (n_c, n_t), nonnegative, sums to 1
    p: np.ndarray            # row marginal the plan was solved for
    q: np.ndarray            # column marginal the plan was solved for
    iterations: int
    residual: float          # inf-norm column-marginal violation at exit
    converged: bool

    def entropy(self) -> float:
        """Shannon entropy -sum(gamma * log gamma), with 0 log 0 = 0."""
        g = self.gamma[self.gamma > 0]
        return float(-np.sum(g * np.log(g)))


def cost_matrix(Z_c, Z_t) -> np.ndarray:
    """Pairwise squared Euclidean distances: C[i, j] = ||Z_c[i] - Z_t[j]||^2."""
    Z_c = np.atleast_2d(np.asarray(Z_c, dtype=float))
    Z_t = np.atleast_2d(np.asarray(Z_t, dtype=float))
    if Z_c.shape[0] == 0 or Z_t.shape[0] == 0:
        raise ValueError("both point clouds must be nonempty")
    if Z_c.shape[1] != Z_t.shape[1]:
        raise ValueError(f"column mismatch: {Z_c.shape[1]} vs {Z_t.shape[1]}")
    sq_c = np.sum(Z_c * Z_c, axis=1)[:, None]
    sq_t = np.sum(Z_t * Z_t, axis=1)[None, :]
    C = sq_c + sq_t - 2.0 * (Z_c @ Z_t.T)
    np.maximum(C, 0.0, out=C)
    return C


def sinkhorn(C, reg, max_iter=1000, tol=1e-6, log_domain=True) -> TransportPlan:
    """Entropy-regularized transport plan via log-domain Sinkhorn iterations.

    reg is the inverse temperature multiplying the cost in the kernel
    exp(-reg * C). The marginals p and q are uniform over the rows and the
    columns of C. Each iteration updates the dual potentials
    g = log q - LSE_i(-reg C + f) and then f = log p - LSE_j(-reg C + g),
    every log-sum-exp shifted by its maximum. After the f-update the row
    marginal is exact up to rounding, so only the column marginal is tested:
    iterations stop once its inf-norm violation drops below tol or max_iter
    is hit, and the plan is returned either way with that residual recorded.
    gamma is the f-update's exponentials rescaled by p / (their row sums),
    with no further exp.

    log_domain is kept for callers that name the solver; it must be True.
    """
    if not log_domain:
        raise ValueError("only the log-domain Sinkhorn solver exists; "
                         "log_domain must be True")
    C = np.asarray(C, dtype=float)
    if C.ndim != 2 or C.size == 0:
        raise ValueError("cost matrix must be a nonempty 2-D array")
    if not np.all(np.isfinite(C)):
        raise ValueError("cost matrix has non-finite entries")
    if reg <= 0:
        raise ValueError("reg must be positive")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    n_c, n_t = C.shape
    p, q = np.full(n_c, 1.0 / n_c), np.full(n_t, 1.0 / n_t)

    logK = C * -reg
    p_col = p[:, None]
    log_p = np.log(p_col)
    log_q = np.log(q)
    f = np.zeros((n_c, 1))
    A = np.empty_like(logK)        # shifted exponents, then their exponentials
    for it in range(1, max_iter + 1):
        # g_j = log q_j - LSE_i(logK_ij + f_i)
        np.add(logK, f, out=A)
        shift = A.max(axis=0)
        A -= shift
        np.exp(A, out=A)
        lse = np.log(A.sum(axis=0))
        lse += shift
        g = log_q - lse
        # f_i = log p_i - LSE_j(logK_ij + g_j)
        np.add(logK, g, out=A)
        shift = A.max(axis=1, keepdims=True)
        A -= shift
        np.exp(A, out=A)
        row = A.sum(axis=1, keepdims=True)
        lse = np.log(row)
        lse += shift
        f = log_p - lse
        # gamma = exp(f + logK + g) = A * p / row; its column sums:
        scale = p_col / row
        col = scale.T @ A
        col -= q
        residual = float(np.max(np.abs(col)))
        if residual < tol:
            break
    A *= scale
    return TransportPlan(gamma=A, p=p, q=q, iterations=it,
                         residual=residual, converged=residual < tol)


def transport_cost(C, plan: TransportPlan) -> float:
    """Frobenius inner product <C, gamma>."""
    C = np.asarray(C, dtype=float)
    if C.shape != plan.gamma.shape:
        raise ValueError("cost and plan shapes disagree")
    return float(np.sum(C * plan.gamma))


def balancing_gradient(plan: TransportPlan, Z_c, Z_t):
    """Gradient of <C(Z_c, Z_t), gamma> w.r.t. the clouds, gamma held fixed.

    d/dZ_c[i] = sum_j 2 gamma[i, j] (Z_c[i] - Z_t[j]), and the mirrored form
    for Z_t.
    """
    Z_c = np.atleast_2d(np.asarray(Z_c, dtype=float))
    Z_t = np.atleast_2d(np.asarray(Z_t, dtype=float))
    gamma = plan.gamma
    if gamma.shape != (Z_c.shape[0], Z_t.shape[0]) or Z_c.shape[1] != Z_t.shape[1]:
        raise ValueError("plan and cloud shapes disagree")
    row = gamma.sum(axis=1)
    col = gamma.sum(axis=0)
    d_c = 2.0 * (row[:, None] * Z_c - gamma @ Z_t)
    d_t = 2.0 * (col[:, None] * Z_t - gamma.T @ Z_c)
    return d_c, d_t


def wasserstein_1d(a, b) -> float:
    """First Wasserstein distance between two empirical sample lists.

    The area between the two empirical CDFs, evaluated on the merged sorted
    samples. This is scipy.stats.wasserstein_distance's formula operation for
    operation, so the two agree bit for bit.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both sample lists must be nonempty")
    merged = np.concatenate((a, b))
    merged.sort(kind="mergesort")
    cdf_a = np.sort(a).searchsorted(merged[:-1], "right") / a.size
    cdf_b = np.sort(b).searchsorted(merged[:-1], "right") / b.size
    return float(np.vecdot(np.abs(cdf_a - cdf_b), np.diff(merged)))
