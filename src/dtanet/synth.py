"""Synthetic benchmark generator with full potential-outcome ground truth.

Covariates are i.i.d. standard normal; only the first five drive treatment,
mediator, and outcome. The treatment rule thresholds a sum of nonlinear basis
functions of x1..x5, the mediator model adds c*t, and the outcome model adds
a*t + b*m. Each individual's mediator/outcome noise pair is drawn once (with
correlation rho) and shared across all potential worlds, so the true
per-individual effects are exactly ITE = a + b*c, MTE = b*c, DTE = a;
GroundTruth.effects splits them with the estimates' model.decompose_effects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ObservationalDataset, check_config
from .model import EffectEstimates, decompose_effects

_BASIS = {
    1: lambda x: -2.0 * np.sin(2.0 * x),
    2: lambda x: x ** 2 - 1.0 / 3.0,
    3: lambda x: x - 0.5,
    4: lambda x: np.exp(-x) - np.exp(-1.0) - 1.0,
    5: lambda x: (x - 0.5) ** 2 + 2.0,
    6: lambda x: (x > 0).astype(float),
    7: lambda x: np.exp(-x),
    8: lambda x: np.cos(x),
    9: lambda x: x ** 2,
    10: lambda x: x,
    11: lambda x: np.sin(x) - 2.0 * np.cos(5.0 * x),
    12: lambda x: -2.0 * np.exp(x),
    13: lambda x: -2.0 * x ** 2 + 1.0,
    14: lambda x: np.sin(3.0 * x),
    15: lambda x: -2.0 * np.cos(x / 2.0),
}


def basis(k: int, x):
    """Evaluate the k-th basis function (k in 1..15) elementwise on x."""
    if k not in _BASIS:
        raise ValueError(f"basis index {k} out of range 1..15")
    return _BASIS[k](np.asarray(x, dtype=float))


@dataclass
class SynthConfig:
    n: int = 1500
    d: int = 100
    a: float = 2.0      # direct treatment-to-outcome coefficient
    b: float = 0.5      # mediator-to-outcome coefficient
    c: float = 1.0      # treatment-to-mediator coefficient
    rho: float = 0.0    # mediator/outcome noise correlation
    seed: int = 0

    def __post_init__(self):
        check_config(self)
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.d < 5:
            raise ValueError("need d >= 5 (first five covariates drive confounding)")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class GroundTruth:
    """All four potential outcomes and both potential mediators, per individual.

    y_t0_m1 / y_t1_m0 are the cross terms y(t, m(1-t)) needed for true
    MTE/DTE; mu_m0 / mu_y0 are the noiseless expected counterparts of m0 / y0.
    """

    m0: np.ndarray
    m1: np.ndarray
    y0: np.ndarray        # y(0, m(0))
    y1: np.ndarray        # y(1, m(1))
    y_t1_m0: np.ndarray   # y(1, m(0))
    y_t0_m1: np.ndarray   # y(0, m(1))
    mu_m0: np.ndarray
    mu_y0: np.ndarray

    def effects(self, t) -> EffectEstimates:
        """The true effects at factual status t, as estimates decompose them."""
        return decompose_effects(self.y1, self.y_t1_m0, self.y_t0_m1, self.y0, t)


def generate(cfg: SynthConfig):
    """Draw a dataset plus its ground truth; deterministic per seed."""
    rng = np.random.default_rng(cfg.seed)
    X = rng.standard_normal((cfg.n, cfg.d))
    treat_score = sum(basis(k, X[:, k - 1]) for k in range(1, 6))
    t = (treat_score > 0).astype(int)
    med_base = sum(basis(k + 10, X[:, k - 1]) for k in range(1, 6))
    out_base = sum(basis(k + 5, X[:, k - 1]) for k in range(1, 6))

    # one correlated (eps_m, eps_y) pair per individual, shared across worlds
    e1 = rng.standard_normal(cfg.n)
    e2 = rng.standard_normal(cfg.n)
    eps_m = e1
    eps_y = cfg.rho * e1 + np.sqrt(1.0 - cfg.rho ** 2) * e2

    mu_m0 = med_base
    mu_m1 = med_base + cfg.c
    m0 = mu_m0 + eps_m
    m1 = mu_m1 + eps_m

    def outcome(t_val, m):
        return out_base + cfg.a * t_val + cfg.b * m

    truth = GroundTruth(
        m0=m0, m1=m1,
        y0=outcome(0, m0) + eps_y, y1=outcome(1, m1) + eps_y,
        y_t1_m0=outcome(1, m0) + eps_y, y_t0_m1=outcome(0, m1) + eps_y,
        mu_m0=mu_m0, mu_y0=outcome(0, mu_m0))

    y = np.where(t == 1, truth.y1, truth.y0)
    dataset = ObservationalDataset(X=X, t=t, y=y, gt_y0=truth.y0, gt_y1=truth.y1,
                                   gt_m0=m0, gt_m1=m1)
    return dataset, truth
