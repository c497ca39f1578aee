"""Evaluation metrics: PEHE, absolute population-effect errors, policy risk."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class MetricsReport:
    """Flat metric record; a field is None when its ground truth is unavailable."""

    sqrt_pehe: float | None = None
    eps_ate: float | None = None
    eps_att: float | None = None
    eps_mte: float | None = None
    eps_dte: float | None = None
    policy_risk: float | None = None


def pehe(est_ite, true_ite) -> float:
    """Mean squared error between estimated and true per-individual effects.

    Callers report sqrt(pehe(...)).
    """
    est_ite = np.asarray(est_ite, dtype=float)
    true_ite = np.asarray(true_ite, dtype=float)
    if est_ite.shape != true_ite.shape or est_ite.size == 0:
        raise ValueError("effect vectors must be nonempty and equal length")
    return float(np.mean((true_ite - est_ite) ** 2))


def effect_report(est, t, true_ite=None, truth=None) -> MetricsReport:
    """Every metric an EffectEstimates bundle supports against the truth given.

    t is the factual treatment vector (it defines ATT and the conditioning of
    MTE/DTE). true_ite, or the ite of a GroundTruth's effects(t), sets root
    PEHE and the ATE/ATT errors (ATT stays None without treated rows); a
    GroundTruth also sets the MTE/DTE errors. Policy risk needs the factual predictions
    est.pred_t and est.pred_c.
    """
    t = np.asarray(t)
    report = MetricsReport()
    if est.pred_t is not None:
        report.policy_risk = policy_risk(est.pred_t, est.pred_c)
    true = truth.effects(t) if truth is not None else None
    if true_ite is None and true is not None:
        true_ite = true.ite
    if true_ite is not None:
        report.sqrt_pehe = math.sqrt(pehe(est.ite, true_ite))
        report.eps_ate = abs(est.ate - float(np.mean(true_ite)))
        treated = t == 1
        if np.any(treated):
            report.eps_att = abs(est.att - float(np.mean(true_ite[treated])))
    if true is not None:
        report.eps_mte = abs(est.ame - true.ame)
        report.eps_dte = abs(est.ade - true.ade)
    return report


def policy_risk(pred_t, pred_c) -> float:
    """1 - E[pred_t | pi=1] p(pi=1) - E[pred_c | pi=0] p(pi=0).

    The policy treats when pred_t - pred_c > 0 (ties route to pi=0); an empty
    policy group contributes 0.
    """
    pred_t = np.asarray(pred_t, dtype=float)
    pred_c = np.asarray(pred_c, dtype=float)
    if pred_t.shape != pred_c.shape:
        raise ValueError("prediction vectors must be equal length")
    n = pred_t.size
    if n == 0:
        return math.nan
    pi = pred_t - pred_c > 0
    risk = 1.0
    if np.any(pi):
        risk -= float(np.mean(pred_t[pi])) * float(np.mean(pi))
    if np.any(~pi):
        risk -= float(np.mean(pred_c[~pi])) * float(np.mean(~pi))
    return risk
