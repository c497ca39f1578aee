"""DTANet architecture and the individual-level effect estimators built on it.

A model bundles five dense nets: a confounding representation net (phi), two
treatment-specific mediator representation nets (psi_t, psi_c), and two
outcome heads (head_t, head_c). Heads consume the concatenation of the
confounding representation with one mediator representation; swapping the
mediator arm fed to a fixed head realizes the counterfactual mediator.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .nn import DenseNet, init_dense

TREATED = "treated"
CONTROL = "control"
_ARMS = (TREATED, CONTROL)


@dataclass
class DtanetModel:
    phi: DenseNet      # covariates -> confounding representation (r_z)
    psi_t: DenseNet    # covariates -> treated mediator representation (r_m)
    psi_c: DenseNet    # covariates -> control mediator representation (r_m)
    head_t: DenseNet   # (r_z + r_m) -> treated outcome
    head_c: DenseNet   # (r_z + r_m) -> control outcome

    def __post_init__(self):
        if self.psi_t.out_dim != self.psi_c.out_dim:
            raise ValueError("psi_t and psi_c must share their output dimension")
        want = self.phi.out_dim + self.psi_t.out_dim
        for head in (self.head_t, self.head_c):
            if head.in_dim != want:
                raise ValueError(f"head input width {head.in_dim} != r_z + r_m = {want}")
            if head.out_dim != 1:
                raise ValueError("outcome heads must be scalar")

    @property
    def in_dim(self) -> int:
        return self.phi.in_dim

    @property
    def rep_dim(self) -> int:
        return self.phi.out_dim

    @property
    def med_dim(self) -> int:
        return self.psi_t.out_dim

    def copy(self) -> "DtanetModel":
        return DtanetModel(self.phi.copy(), self.psi_t.copy(), self.psi_c.copy(),
                           self.head_t.copy(), self.head_c.copy())

    def bundles(self):
        """Named parameter bundles, in a fixed order."""
        return {"phi": self.phi, "psi_t": self.psi_t, "psi_c": self.psi_c,
                "head_t": self.head_t, "head_c": self.head_c}


@dataclass
class EffectEstimates:
    """Per-individual effects plus their population aggregates.

    mte_at_t / dte_at_t condition on each individual's factual treatment
    status; dte_at_other holds the mediator at the counterfactual arm, so that
    ite = mte_at_t + dte_at_other per individual.
    """

    ite: np.ndarray
    mte_at_t: np.ndarray
    dte_at_t: np.ndarray
    dte_at_other: np.ndarray
    ate: float
    att: float
    ame: float
    ade: float
    pred_t: np.ndarray | None = None   # y_hat(treated head, treated mediator)
    pred_c: np.ndarray | None = None   # y_hat(control head, control mediator)


def init_model(d, rep_dim, med_dim, phi_hidden, psi_hidden, head_hidden,
               rng: np.random.Generator) -> DtanetModel:
    """Freshly initialized model; hidden widths are tuples, possibly empty."""
    phi = init_dense([d, *phi_hidden, rep_dim], rng)
    psi_t = init_dense([d, *psi_hidden, med_dim], rng)
    psi_c = init_dense([d, *psi_hidden, med_dim], rng)
    head_t = init_dense([rep_dim + med_dim, *head_hidden, 1], rng)
    head_c = init_dense([rep_dim + med_dim, *head_hidden, 1], rng)
    return DtanetModel(phi, psi_t, psi_c, head_t, head_c)


def represent(model: DtanetModel, X):
    """Row-wise representations (Z, M_t, M_c) for covariate matrix X (n, d)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise ValueError(f"covariate width {X.shape} != {model.in_dim}")
    Z, _ = model.phi.forward(X)
    M_t, _ = model.psi_t.forward(X)
    M_c, _ = model.psi_c.forward(X)
    return Z, M_t, M_c


def predict_outcomes(model: DtanetModel, X, head, mediator_arm):
    """Batched head evaluation: head(concat(phi(x), psi_arm(x))) per row."""
    if head not in _ARMS or mediator_arm not in _ARMS:
        raise ValueError(f"arms must be one of {_ARMS}")
    Z, M_t, M_c = represent(model, X)
    M = M_t if mediator_arm == TREATED else M_c
    net = model.head_t if head == TREATED else model.head_c
    out, _ = net.forward(np.hstack([Z, M]))
    return out[:, 0]


def predict_outcome(model: DtanetModel, x, head, mediator_arm) -> float:
    """Single-individual outcome prediction; the factual arm uses head == mediator_arm."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    return float(predict_outcomes(model, x, head, mediator_arm)[0])


def estimate_effects(model: DtanetModel, X, t) -> EffectEstimates:
    """Effect estimates for every individual, conditioning on factual status t.

    ite = y_hat(treated head, treated mediator) - y_hat(control head, control
    mediator); mte swaps the mediator arm under the factual head; dte swaps
    the head while holding the mediator arm fixed. The three representation
    nets run once and each head twice, on the same inputs predict_outcomes
    gives them, so every prediction equals predict_outcomes' bit for bit.
    """
    t = np.asarray(t)
    X = np.asarray(X, dtype=float)
    if X.shape[0] != t.shape[0]:
        raise ValueError("X and t lengths disagree")
    Z, M_t, M_c = represent(model, X)
    H_t, H_c = np.hstack([Z, M_t]), np.hstack([Z, M_c])
    yt_mt, yt_mc = (model.head_t.forward(H)[0][:, 0] for H in (H_t, H_c))
    yc_mt, yc_mc = (model.head_c.forward(H)[0][:, 0] for H in (H_t, H_c))

    treated = t == 1
    ite = yt_mt - yc_mc
    mte_at_t = np.where(treated, yt_mt - yt_mc, yc_mt - yc_mc)
    dte_at_t = np.where(treated, yt_mt - yc_mt, yt_mc - yc_mc)
    dte_at_other = np.where(treated, yt_mc - yc_mc, yt_mt - yc_mt)

    att = float(np.mean(ite[treated])) if np.any(treated) else float("nan")
    return EffectEstimates(
        ite=ite, mte_at_t=mte_at_t, dte_at_t=dte_at_t, dte_at_other=dte_at_other,
        ate=float(np.mean(ite)) if ite.size else float("nan"),
        att=att,
        ame=float(np.mean(mte_at_t)) if ite.size else float("nan"),
        ade=float(np.mean(dte_at_t)) if ite.size else float("nan"),
        pred_t=yt_mt, pred_c=yc_mc,
    )


CHECKPOINT_VERSION = 1


def save_checkpoint(path, model: DtanetModel, config: dict | None = None):
    """Write every weight matrix under a named key, plus the config used.

    Round-trips bit-exactly (float64 arrays stored verbatim).
    """
    arrays = {"checkpoint_version": np.array(CHECKPOINT_VERSION)}
    for name, net in model.bundles().items():
        for k, (w, b) in enumerate(zip(net.weights, net.biases)):
            arrays[f"{name}.layer{k}.weight"] = w
            arrays[f"{name}.layer{k}.bias"] = b
    arrays["config_json"] = np.array(json.dumps(config or {}, sort_keys=True))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Inverse of save_checkpoint: returns (model, config dict).

    Raises DataError for a file that is not an .npz archive of plain arrays
    (pickled data is refused), for another checkpoint_version, and for a
    missing or malformed network.
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError("a single array, not an .npz archive")
        with data:
            if "checkpoint_version" not in data:
                raise DataError("no checkpoint_version entry")
            version = data["checkpoint_version"]
            if version.shape != () or int(version) != CHECKPOINT_VERSION:
                raise DataError(f"unsupported checkpoint version {version}, "
                                f"expected {CHECKPOINT_VERSION}")
            config = json.loads(str(data["config_json"]))
            if not isinstance(config, dict):
                raise DataError("config_json is not a JSON object")
            nets = {}
            for name in ("phi", "psi_t", "psi_c", "head_t", "head_c"):
                weights, biases = [], []
                k = 0
                while f"{name}.layer{k}.weight" in data:
                    weights.append(data[f"{name}.layer{k}.weight"])
                    biases.append(data[f"{name}.layer{k}.bias"])
                    k += 1
                if not weights:
                    raise DataError(f"the {name} network is missing")
                nets[name] = DenseNet(weights, biases)
        return DtanetModel(**nets), config
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # DataError is a ValueError, and so are np.load's refusal of pickled
        # data, malformed JSON and weights whose shapes do not chain
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        raise DataError(f"{path}: not a usable dtanet checkpoint: {message}") from exc
