"""DTANet architecture and the individual-level effect estimators built on it.

A model bundles five dense nets: a confounding representation net (phi), two
treatment-specific mediator representation nets (psi_t, psi_c), and two
outcome heads (head_t, head_c). Heads consume the concatenation of the
confounding representation with one mediator representation; swapping the
mediator arm fed to a fixed head realizes the counterfactual mediator.
decompose_effects splits an effect into its mediated and direct parts, for
the heads' predictions and for the generator's potential outcomes alike.
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
BUNDLES = ("phi", "psi_t", "psi_c", "head_t", "head_c")


@dataclass
class DtanetModel:
    phi: DenseNet      # covariates -> confounding representation (r_z)
    psi_t: DenseNet    # covariates -> treated mediator representation (r_m)
    psi_c: DenseNet    # covariates -> control mediator representation (r_m)
    head_t: DenseNet   # (r_z + r_m) -> treated outcome
    head_c: DenseNet   # (r_z + r_m) -> control outcome

    def __post_init__(self):
        widths = [net.in_dim for net in (self.phi, self.psi_t, self.psi_c)]
        if len(set(widths)) != 1:
            raise ValueError(f"phi, psi_t and psi_c input widths {widths} differ")
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
        return DtanetModel(**{name: net.copy() for name, net in self.bundles().items()})

    def bundles(self):
        """Named parameter bundles, in a fixed order."""
        return {name: getattr(self, name) for name in BUNDLES}


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
    pred_t: np.ndarray | None = None   # y(1, m(1)): treated head, treated mediator
    pred_c: np.ndarray | None = None   # y(0, m(0)): control head, control mediator


def init_model(d, rep_dim, med_dim, phi_hidden, psi_hidden, head_hidden,
               rng: np.random.Generator) -> DtanetModel:
    """Freshly initialized model; hidden widths are tuples, possibly empty."""
    phi = init_dense([d, *phi_hidden, rep_dim], rng)
    psi_t = init_dense([d, *psi_hidden, med_dim], rng)
    psi_c = init_dense([d, *psi_hidden, med_dim], rng)
    head_t = init_dense([rep_dim + med_dim, *head_hidden, 1], rng)
    head_c = init_dense([rep_dim + med_dim, *head_hidden, 1], rng)
    return DtanetModel(phi, psi_t, psi_c, head_t, head_c)


def _covariates(model: DtanetModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.in_dim:
        raise ValueError(f"covariate width {X.shape} != {model.in_dim}")
    return X


def represent(model: DtanetModel, X):
    """Row-wise representations (Z, M_t, M_c) for covariate matrix X (n, d)."""
    X = _covariates(model, X)
    Z, _ = model.phi.forward(X)
    M_t, _ = model.psi_t.forward(X)
    M_c, _ = model.psi_c.forward(X)
    return Z, M_t, M_c


# Inference runs the nets on row blocks of this many rows (the remainder
# merged into the last block), so that no tape or [Z, M] matrix outgrows a
# block. At one BLAS thread OpenBLAS gives a row the bits of the whole call,
# except on its small-matrix dgemm path (in_dim >= 32 and out_dim x rows
# <= 1200): blocks of 576 rows change the bits of a 2-wide layer, 640 do not.
_BLOCK_ROWS = 640


def _row_blocks(n):
    """Slices [0, B), [B, 2B), ... of range(n) for B = _BLOCK_ROWS, the
    remainder merged into the last one: one slice of all n rows when n < 2B,
    else blocks of B rows and a last one of B to 2B - 1 rows.

    Block starts are multiples of B; at one BLAS thread each block then gets
    the bits the whole call gives its rows.
    """
    ends = [*range(_BLOCK_ROWS, n - _BLOCK_ROWS + 1, _BLOCK_ROWS), n]
    return [slice(lo, hi) for lo, hi in zip([0, *ends[:-1]], ends)]


def _predict(model: DtanetModel, X, pairs):
    """Head predictions, one row per (head, mediator_arm) pair in pairs.

    Per row block of _row_blocks, phi runs once, then each mediator net that
    a pair names, then the heads in pair order. At one BLAS thread the result
    has the bits of one call on all rows; with more threads a fold of
    2 * _BLOCK_ROWS rows or more can differ in the last bits, since threaded
    GEMM splits its rows by the size of each call.
    """
    psis = {TREATED: model.psi_t, CONTROL: model.psi_c}
    heads = {TREATED: model.head_t, CONTROL: model.head_c}
    used = {arm for _, arm in pairs}
    out = np.empty((len(pairs), X.shape[0]))
    for rows in _row_blocks(X.shape[0]):
        Z, _ = model.phi.forward(X[rows])
        H = {arm: np.hstack([Z, psis[arm].forward(X[rows])[0]])
             for arm in _ARMS if arm in used}
        for k, (head, arm) in enumerate(pairs):
            out[k, rows] = heads[head].forward(H[arm])[0][:, 0]
    return out


def predict_outcomes(model: DtanetModel, X, head, mediator_arm):
    """Batched head evaluation: head(concat(phi(x), psi_arm(x))) per row,
    three forwards per row block of _row_blocks."""
    if head not in _ARMS or mediator_arm not in _ARMS:
        raise ValueError(f"arms must be one of {_ARMS}")
    return _predict(model, _covariates(model, X), [(head, mediator_arm)])[0]


def estimate_effects(model: DtanetModel, X, t) -> EffectEstimates:
    """Effect estimates at factual status t: decompose_effects of each head's
    prediction with each arm's mediator representation, seven forwards per
    row block.
    """
    t = np.asarray(t)
    X = _covariates(model, X)
    if X.shape[0] != t.shape[0]:
        raise ValueError("X and t lengths disagree")
    pairs = [(h, m) for h in _ARMS for m in _ARMS]  # y1_m1, y1_m0, y0_m1, y0_m0
    return decompose_effects(*_predict(model, X, pairs), t)


def decompose_effects(y1_m1, y1_m0, y0_m1, y0_m0, t) -> EffectEstimates:
    """Effects at factual status t (length n, or 1 for every row) from the
    four outcomes y1_m0 = y(1, m(0)) and so on: ite = y(1, m(1)) - y(0, m(0));
    mte swaps the mediator arm at the factual treatment; dte swaps the
    treatment at the factual (dte_at_t) or the other (dte_at_other) mediator."""
    treated = np.broadcast_to(np.asarray(t) == 1, y1_m1.shape)
    ite = y1_m1 - y0_m0
    mte_at_t = np.where(treated, y1_m1 - y1_m0, y0_m1 - y0_m0)
    dte_at_t = np.where(treated, y1_m1 - y0_m1, y1_m0 - y0_m0)
    dte_at_other = np.where(treated, y1_m0 - y0_m0, y1_m1 - y0_m1)
    return EffectEstimates(
        ite=ite, mte_at_t=mte_at_t, dte_at_t=dte_at_t, dte_at_other=dte_at_other,
        ate=float(np.mean(ite)) if ite.size else float("nan"),
        att=float(np.mean(ite[treated])) if np.any(treated) else float("nan"),
        ame=float(np.mean(mte_at_t)) if ite.size else float("nan"),
        ade=float(np.mean(dte_at_t)) if ite.size else float("nan"),
        pred_t=y1_m1, pred_c=y0_m0,
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
    (pickled data is refused), for another checkpoint_version, for a stored
    seed that is not an integer >= 0 (a missing one is fine), and for a
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
            seed = config.get("seed", 0)
            if type(seed) is not int or seed < 0:
                raise DataError(f"stored seed {seed!r} is not an integer >= 0")
            nets = {}
            for name in BUNDLES:
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
