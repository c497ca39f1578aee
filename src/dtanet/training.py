"""Losses, the total objective, and the mini-batch training loop.

The objective is L = L_y + lambda1 * L_sim + lambda2 * L_balan, where L_y is
the size-compensated per-arm squared outcome error, L_sim the squared
Frobenius norms of the mediator/confounder cross-products, and L_balan the
entropic transport cost between the two confounding-representation clouds.
The transport plan is recomputed every mini-batch from the current
representations and then frozen while gradients are assembled (envelope
rule), so L_balan contributes only through the cost matrix.

Gradient routing: the treated mediator net and treated head receive gradients
only from treated samples, mirrored for the control arm; the confounding net
receives all three loss terms.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from . import nn, ot
from .data import (DataError, ObservationalDataset, arm_pools, check_config,
                   sample_arm_batch)
from .model import BUNDLES, DtanetModel, init_model, predict_outcomes


@dataclass
class TrainConfig:
    """All hyperparameters of a training run."""

    lambda0: float = 0.5       # treated-arm weight inside the outcome loss
    lambda1: float = 0.1       # orthogonality weight
    lambda2: float = 0.3       # balancing weight
    lambda3: float = 0.1       # entropic inverse temperature in the Sinkhorn kernel
    alpha: float = 1e-3
    beta1: float = 0.8
    beta2: float = 0.95
    epochs: int = 300
    batch_size_t: int = 64
    batch_size_c: int = 64
    sinkhorn_max_iter: int = 1000
    sinkhorn_tol: float = 1e-6
    seed: int = 0
    rep_dim: int = 200
    med_dim: int = 200
    phi_hidden: tuple = (200, 200)
    psi_hidden: tuple = (200, 200)
    head_hidden: tuple = (200, 200)

    def __post_init__(self):
        check_config(self)
        if not 0.0 < self.lambda0 < 1.0:
            raise ValueError("lambda0 must lie in (0, 1)")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambda1 and lambda2 must be nonnegative")
        if self.lambda3 <= 0 or self.alpha <= 0 or self.sinkhorn_tol <= 0:
            raise ValueError("lambda3, alpha and sinkhorn_tol must be positive")
        if min(self.batch_size_t, self.batch_size_c, self.sinkhorn_max_iter) < 1:
            raise ValueError("batch sizes and sinkhorn_max_iter must be >= 1")
        if min(self.epochs, self.seed, self.rep_dim, self.med_dim) < 0:
            raise ValueError("epochs, seed, rep_dim and med_dim must be nonnegative")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        for name in ("phi_hidden", "psi_hidden", "head_hidden"):
            widths = tuple(getattr(self, name))
            if not all(isinstance(w, numbers.Integral) and w >= 1 for w in widths):
                raise ValueError(f"{name} widths must be integers >= 1, got {widths}")
            setattr(self, name, tuple(map(int, widths)))


@dataclass
class TraceRecord:
    """Per-epoch averages of the loss parts plus diagnostics."""

    epoch: int
    l_y: float
    l_sim: float
    l_balan: float
    total: float
    sinkhorn_residual: float
    val_l_y: float = math.nan
    seconds: float = 0.0


def loss_outcome(pred_t, y_t, pred_c, y_c, lambda0: float) -> float:
    """(lambda0/n_t) sum (pred_t - y_t)^2 + ((1-lambda0)/n_c) sum (pred_c - y_c)^2.

    Either arm may be empty; its term is then zero.
    """
    total = 0.0
    pred_t, y_t = np.asarray(pred_t, dtype=float), np.asarray(y_t, dtype=float)
    pred_c, y_c = np.asarray(pred_c, dtype=float), np.asarray(y_c, dtype=float)
    if pred_t.size:
        total += lambda0 * float(np.mean((pred_t - y_t) ** 2))
    if pred_c.size:
        total += (1.0 - lambda0) * float(np.mean((pred_c - y_c) ** 2))
    return total


def loss_orthogonal(M_t, Z_t, M_c, Z_c) -> float:
    """||M_t^T Z_t||_F^2 + ||M_c^T Z_c||_F^2 over the per-arm batches."""
    total = 0.0
    for M, Z in ((M_t, Z_t), (M_c, Z_c)):
        M = np.atleast_2d(np.asarray(M, dtype=float))
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if M.shape[0] != Z.shape[0]:
            raise ValueError("per-arm row counts of M and Z disagree")
        if M.shape[0]:
            total += float(np.sum((M.T @ Z) ** 2))
    return total


def compute_gradients(model: DtanetModel, X_t, y_t, X_c, y_c, cfg: TrainConfig):
    """Assembled per-bundle gradients of the frozen-plan objective.

    phi runs once forward and once backward on the stacked batch (treated
    rows first, then control rows); each arm's mediator net and head run on
    that arm's rows only.

    Returns (grads, parts): grads maps bundle name -> flat gradient vector
    laid out like that net's theta (or None when that arm is absent from the
    batch pair); parts carries the loss values, the Sinkhorn residual, and
    the frozen coupling. A transport cost that is not finite (the
    representations overflowed) raises FloatingPointError.
    """
    X_t = np.asarray(X_t, dtype=float).reshape(-1, model.in_dim)
    X_c = np.asarray(X_c, dtype=float).reshape(-1, model.in_dim)
    n_t, n_c = X_t.shape[0], X_c.shape[0]
    if n_t == 0 and n_c == 0:
        raise ValueError("both batches are empty")
    r_z = model.rep_dim
    grads = dict.fromkeys(BUNDLES)
    parts = {"l_y": 0.0, "l_sim": 0.0, "l_balan": 0.0,
             "sinkhorn_residual": math.nan, "gamma": None}

    Z_all, tape_phi = model.phi.forward(np.concatenate([X_t, X_c]))
    dZ_all = np.empty_like(Z_all)
    for rows, X, y, psi, head, psi_name, head_name, weight in (
            (slice(0, n_t), X_t, y_t, model.psi_t, model.head_t, "psi_t", "head_t",
             cfg.lambda0),
            (slice(n_t, n_t + n_c), X_c, y_c, model.psi_c, model.head_c, "psi_c",
             "head_c", 1.0 - cfg.lambda0)):
        n = X.shape[0]
        if n == 0:
            continue
        y = np.asarray(y, dtype=float).ravel()
        Z = Z_all[rows]
        M, tape_psi = psi.forward(X)
        pred, tape_head = head.forward(np.hstack([Z, M]))
        pred = pred[:, 0]
        parts["l_y"] += weight * float(np.mean((pred - y) ** 2))
        # d L_y / d pred, including the per-arm size compensation
        d_pred = (2.0 * weight / n) * (pred - y)
        # orthogonality term and its representation gradients
        A = M.T @ Z
        parts["l_sim"] += float(np.sum(A ** 2))
        # the head and mediator net need nothing from the transport plan
        grads[head_name], d_H = head.backward(tape_head, d_pred[:, None])
        dZ_all[rows] = d_H[:, :r_z] + cfg.lambda1 * (2.0 * (M @ A))
        dM = d_H[:, r_z:] + cfg.lambda1 * (2.0 * (Z @ A.T))
        grads[psi_name], _ = psi.backward(tape_psi, dM, input_grad=False)

    if n_t and n_c:
        Z_t, Z_c = Z_all[:n_t], Z_all[n_t:]
        C = ot.cost_matrix(Z_c, Z_t)
        if not np.all(np.isfinite(C)):
            raise FloatingPointError("non-finite transport cost between the "
                                     "batch representations")
        plan = ot.sinkhorn(C, cfg.lambda3, max_iter=cfg.sinkhorn_max_iter,
                           tol=cfg.sinkhorn_tol)
        parts["l_balan"] = ot.transport_cost(C, plan)
        parts["sinkhorn_residual"] = plan.residual
        parts["gamma"] = plan.gamma
        d_c, d_t = ot.balancing_gradient(plan, Z_c, Z_t)
        dZ_all[:n_t] += cfg.lambda2 * d_t
        dZ_all[n_t:] += cfg.lambda2 * d_c
    grads["phi"], _ = model.phi.backward(tape_phi, dZ_all, input_grad=False)

    parts["total"] = (parts["l_y"] + cfg.lambda1 * parts["l_sim"]
                      + cfg.lambda2 * parts["l_balan"])
    return grads, parts


def train_step(model: DtanetModel, states: dict, X_t, y_t, X_c, y_c,
               cfg: TrainConfig):
    """One gradient step. Bundles with no samples in the batch are untouched."""
    grads, parts = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
    for name, net in model.bundles().items():
        if grads[name] is not None:
            nn.adam_step(states[name], net.theta, grads[name])
    return parts


def _validation_outcome_loss(model: DtanetModel, dataset, idx, lambda0: float) -> float:
    """Outcome loss of each arm's rows under its own mediator net and head.

    Six net forwards: phi, psi and the head on each arm's rows.
    """
    X, t, y = dataset.X[idx], dataset.t[idx], dataset.y[idx]
    pred_t = predict_outcomes(model, X[t == 1], "treated", "treated")
    pred_c = predict_outcomes(model, X[t == 0], "control", "control")
    return loss_outcome(pred_t, y[t == 1], pred_c, y[t == 0], lambda0)


def train(dataset: ObservationalDataset, cfg: TrainConfig,
          train_indices=None, val_indices=None):
    """Alg.-style mini-batch training; returns (model, trace).

    Every epoch runs ceil(max(n_t, n_c) / batch) paired steps, each sampling a
    treated and a control batch, recomputing the Sinkhorn plan on the batch
    representations, and applying Adam to all five bundles. When val_indices
    is given, the returned model is the best-validation-outcome-loss snapshot;
    otherwise the final parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    model = init_model(dataset.d, cfg.rep_dim, cfg.med_dim, cfg.phi_hidden,
                       cfg.psi_hidden, cfg.head_hidden, rng)
    trace: list[TraceRecord] = []
    if cfg.epochs == 0:
        return model, trace

    idx = np.arange(dataset.n) if train_indices is None else np.asarray(train_indices)
    pool_t, pool_c = arm_pools(dataset, idx)
    if pool_t.size == 0 or pool_c.size == 0:
        raise DataError("training needs at least one treated and one control individual")
    steps = max(1, math.ceil(max(pool_t.size, pool_c.size)
                             / max(cfg.batch_size_t, cfg.batch_size_c)))

    states = {name: nn.adam_init(net.theta, cfg.alpha, cfg.beta1, cfg.beta2)
              for name, net in model.bundles().items()}
    best_model, best_val = None, math.inf
    # overflow on the way to a divergence is caught by the finiteness checks
    # below, which raise FloatingPointError; NumPy's warnings only add noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            t0 = time.perf_counter()
            sums = {"l_y": 0.0, "l_sim": 0.0, "l_balan": 0.0, "total": 0.0}
            worst_residual = 0.0
            for step in range(steps):
                bt = sample_arm_batch(pool_t, cfg.batch_size_t, rng)
                bc = sample_arm_batch(pool_c, cfg.batch_size_c, rng)
                parts = train_step(model, states, dataset.X[bt], dataset.y[bt],
                                   dataset.X[bc], dataset.y[bc], cfg)
                if not math.isfinite(parts["total"]):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, batch {step}")
                for key in sums:
                    sums[key] += parts[key]
                worst_residual = max(worst_residual, parts["sinkhorn_residual"])
            val_l_y = math.nan
            if val_indices is not None and len(val_indices):
                val_l_y = _validation_outcome_loss(model, dataset, val_indices, cfg.lambda0)
                if val_l_y < best_val:
                    best_val, best_model = val_l_y, model.copy()
            trace.append(TraceRecord(
                epoch=epoch, l_y=sums["l_y"] / steps, l_sim=sums["l_sim"] / steps,
                l_balan=sums["l_balan"] / steps, total=sums["total"] / steps,
                sinkhorn_residual=worst_residual, val_l_y=val_l_y,
                seconds=time.perf_counter() - t0))
    return (best_model if best_model is not None else model), trace
