"""Losses, the total objective, and the mini-batch training loop.

The objective is L = L_y + lambda1 * L_sim + lambda2 * L_balan, where L_y is
the size-compensated per-arm squared outcome error, L_sim the squared
Frobenius norms of the mediator/confounder cross-products, and L_balan the
entropic transport cost between the two confounding-representation clouds.
The transport plan is recomputed every mini-batch from the current
representations and then frozen while gradients are assembled (envelope
rule), so L_balan contributes only through the cost matrix. With lambda2 = 0
no plan is computed and L_balan reads 0.

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
            if not all(isinstance(w, numbers.Integral) and not isinstance(w, bool)
                       and w >= 1 for w in widths):
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


def _arm_outcomes(arm: str, y, n: int) -> np.ndarray:
    """y as a float vector, checked to hold one outcome per row of the arm."""
    y = np.asarray(y, dtype=float).ravel()
    if y.size != n:
        raise ValueError(f"{arm} arm: {y.size} outcomes for {n} rows")
    return y


def loss_outcome(pred_t, y_t, pred_c, y_c, lambda0: float) -> float:
    """(lambda0/n_t) sum (pred_t - y_t)^2 + ((1-lambda0)/n_c) sum (pred_c - y_c)^2.

    Either arm may be empty; its term is then zero. An arm whose outcomes
    and predictions differ in length raises ValueError.
    """
    total = 0.0
    pred_t = np.asarray(pred_t, dtype=float).ravel()
    pred_c = np.asarray(pred_c, dtype=float).ravel()
    y_t = _arm_outcomes("treated", y_t, pred_t.size)
    y_c = _arm_outcomes("control", y_c, pred_c.size)
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


def _arm_pass(psi, head, X, y, Z, dZ, weight, lambda1, psi_out, head_out):
    """One arm's share of the gradients, given its rows' confounding
    representation Z.

    Runs the arm's mediator net and head forward and backward and writes
    d(L_y + lambda1 L_sim)/dZ into dZ. Returns (weighted L_y term, L_sim
    term, psi gradient, head gradient), or (0.0, 0.0, None, None) for an arm
    with no rows.
    """
    if not len(X):
        return 0.0, 0.0, None, None
    M, tape_psi = psi.forward(X)
    pred, tape_head = head.forward(np.hstack([Z, M]))
    pred = pred[:, 0]
    l_y = weight * float(np.mean((pred - y) ** 2))
    # d L_y / d pred, including the per-arm size compensation
    d_pred = (2.0 * weight / X.shape[0]) * (pred - y)
    # orthogonality term and its representation gradients
    A = M.T @ Z
    l_sim = float(np.sum(A ** 2))
    # the head and mediator net need nothing from the transport plan
    g_head, d_H = head.backward(tape_head, d_pred[:, None], out=head_out)
    r_z = Z.shape[1]
    dZ[...] = d_H[:, :r_z] + lambda1 * (2.0 * (M @ A))
    dM = d_H[:, r_z:] + lambda1 * (2.0 * (Z @ A.T))
    del tape_head, d_H
    g_psi, _ = psi.backward(tape_psi, dM, input_grad=False, out=psi_out)
    return l_y, l_sim, g_psi, g_head


def _transport(Z_t, Z_c, cfg: TrainConfig):
    """The frozen Sinkhorn plan between the arms' representations, and
    (transport cost, d/dZ_c, d/dZ_t)."""
    C = ot.cost_matrix(Z_c, Z_t)
    if not np.all(np.isfinite(C)):
        raise FloatingPointError("non-finite transport cost between the "
                                 "batch representations")
    plan = ot.sinkhorn(C, cfg.lambda3, max_iter=cfg.sinkhorn_max_iter,
                       tol=cfg.sinkhorn_tol)
    return plan, ot.transport_cost(C, plan), *ot.balancing_gradient(plan, Z_c, Z_t)


def _update(model: DtanetModel, states, grads, names):
    """Adam on each named bundle that has a gradient; nothing without states."""
    if not states:
        return
    for name in names:
        if grads[name] is not None:
            nn.adam_step(states[name], getattr(model, name).theta, grads[name])


# How a step shares the Adam updates: these bundles go beside phi's backward
# pass, and the calling thread updates the other two after it.
_WORKER_UPDATES = ("psi_t", "head_t", "head_c")


def compute_gradients(model: DtanetModel, X_t, y_t, X_c, y_c, cfg: TrainConfig,
                      states=None, worker=None):
    """Assembled per-bundle gradients of the frozen-plan objective.

    phi runs once forward and once backward on the stacked batch (treated
    rows first, then control rows); each arm's mediator net and head run on
    that arm's rows only.

    Returns (grads, parts): grads maps bundle name -> flat gradient vector
    laid out like that net's theta (or None when that arm is absent from the
    batch pair); parts carries the loss values, the Sinkhorn residual, and
    the frozen coupling. With lambda2 = 0 the transport term is skipped:
    l_balan is 0, and the residual and coupling stay NaN and None. A
    transport cost that is not finite (the representations overflowed)
    raises FloatingPointError. An arm whose outcomes and rows differ in
    number raises ValueError.

    states, when given, maps bundle names to Adam states: each gradient is
    written into its state's grad buffer, and every bundle that has a
    gradient is updated (train_step's path). Without states each gradient
    is a new vector.

    A step is two jobs beside two blocks (nn._beside): the treated arm beside
    the control arm and the transport term, then the psi_t, head_t and
    head_c updates beside phi's backward pass and the phi and psi_c updates.
    worker, an executor, runs the jobs while this thread runs the blocks;
    without it, or when an arm has no rows, this thread runs each job before
    its block, so the treated arm's tapes are freed before the control arm
    allocates its own. Every number is the same either way.
    """
    X_t = np.asarray(X_t, dtype=float).reshape(-1, model.in_dim)
    X_c = np.asarray(X_c, dtype=float).reshape(-1, model.in_dim)
    n_t, n_c = X_t.shape[0], X_c.shape[0]
    if n_t == 0 and n_c == 0:
        raise ValueError("both batches are empty")
    y_t = _arm_outcomes("treated", y_t, n_t)
    y_c = _arm_outcomes("control", y_c, n_c)
    if not (n_t and n_c):
        worker = None
    buffers = {name: s.grad for name, s in states.items()} if states else {}
    parts = {"l_y": 0.0, "l_sim": 0.0, "l_balan": 0.0,
             "sinkhorn_residual": math.nan, "gamma": None}

    Z_all, tape_phi = model.phi.forward(np.concatenate([X_t, X_c]))
    dZ_all = np.empty_like(Z_all)
    Z_t, Z_c = Z_all[:n_t], Z_all[n_t:]
    arms = {"t": (model.psi_t, model.head_t, X_t, y_t, Z_t, dZ_all[:n_t], cfg.lambda0,
                  cfg.lambda1, buffers.get("psi_t"), buffers.get("head_t")),
            "c": (model.psi_c, model.head_c, X_c, y_c, Z_c, dZ_all[n_t:],
                  1.0 - cfg.lambda0, cfg.lambda1, buffers.get("psi_c"),
                  buffers.get("head_c"))}
    balance = n_t and n_c and cfg.lambda2 > 0
    with nn._beside(worker, _arm_pass, *arms["t"]) as treated:
        control = _arm_pass(*arms["c"])
        transport = _transport(Z_t, Z_c, cfg) if balance else None

    grads = dict.fromkeys(BUNDLES)
    for arm, (l_y, l_sim, g_psi, g_head) in (("t", treated()), ("c", control)):
        parts["l_y"] += l_y
        parts["l_sim"] += l_sim
        grads["psi_" + arm], grads["head_" + arm] = g_psi, g_head
    if transport is not None:
        plan, parts["l_balan"], d_c, d_t = transport
        parts["sinkhorn_residual"] = plan.residual
        parts["gamma"] = plan.gamma
        dZ_all[:n_t] += cfg.lambda2 * d_t
        dZ_all[n_t:] += cfg.lambda2 * d_c
    with nn._beside(worker, _update, model, states, grads, _WORKER_UPDATES):
        grads["phi"], _ = model.phi.backward(tape_phi, dZ_all, input_grad=False,
                                             out=buffers.get("phi"))
        _update(model, states, grads, ("phi", "psi_c"))

    parts["total"] = (parts["l_y"] + cfg.lambda1 * parts["l_sim"]
                      + cfg.lambda2 * parts["l_balan"])
    return grads, parts


def train_step(model: DtanetModel, states: dict, X_t, y_t, X_c, y_c,
               cfg: TrainConfig, worker=None):
    """One gradient step: compute_gradients with states. Bundles with no
    samples in the batch are untouched; worker is compute_gradients'."""
    return compute_gradients(model, X_t, y_t, X_c, y_c, cfg, states=states,
                             worker=worker)[1]


# train shares its steps with a second thread when rows x (mediator net +
# head parameters) of the smaller arm batch reaches this. At one BLAS thread
# on a 2-vCPU VM (d = 100, batches of 64, all widths equal), two threads made
# a width-88 step (3.1e6) 7% slower and a width-96 step (3.6e6) 15% faster.
_TWO_THREAD_WORK = 3_400_000


def _step_worker(model: DtanetModel, rows: int):
    """The executor that train's steps share their work with, or None:
    nn._worker's verdict on the arms' work."""
    work = rows * (model.psi_t.theta.size + model.head_t.theta.size)
    return nn._worker(work, _TWO_THREAD_WORK)


def _validation_outcome_loss(model: DtanetModel, dataset, idx, lambda0: float) -> float:
    """Outcome loss of each arm's rows under its own mediator net and head.

    Six net forwards: phi, psi and the head on each arm's rows.
    """
    pool_t, pool_c = arm_pools(dataset, idx)
    pred_t = predict_outcomes(model, dataset.X[pool_t], "treated", "treated")
    pred_c = predict_outcomes(model, dataset.X[pool_c], "control", "control")
    return loss_outcome(pred_t, dataset.y[pool_t], pred_c, dataset.y[pool_c], lambda0)


def train(dataset: ObservationalDataset, cfg: TrainConfig,
          train_indices=None, val_indices=None):
    """Alg.-style mini-batch training; returns (model, trace).

    Every epoch runs ceil(max(n_t, n_c) / batch) paired steps, each sampling a
    treated and a control batch, recomputing the Sinkhorn plan on the batch
    representations (unless lambda2 is 0), and applying Adam to all five
    bundles. When val_indices is given, the returned model is a copy taken
    at the best validation outcome loss; otherwise the final parameters.
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
    worker = _step_worker(model, min(cfg.batch_size_t, cfg.batch_size_c))
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
                                   dataset.X[bc], dataset.y[bc], cfg, worker)
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
                    best_model, best_val = model.copy(), val_l_y
            trace.append(TraceRecord(
                epoch=epoch, l_y=sums["l_y"] / steps, l_sim=sums["l_sim"] / steps,
                l_balan=sums["l_balan"] / steps, total=sums["total"] / steps,
                sinkhorn_residual=worst_residual, val_l_y=val_l_y,
                seconds=time.perf_counter() - t0))
    return (best_model if best_model is not None else model), trace
