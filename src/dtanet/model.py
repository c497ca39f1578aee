"""DTANet architecture and the individual-level effect estimators built on it.

A model bundles five dense nets: a confounding representation net (phi), two
treatment-specific mediator representation nets (psi_t, psi_c), and two
outcome heads (head_t, head_c). Heads consume the concatenation of the
confounding representation with one mediator representation; swapping the
mediator arm fed to a fixed head realizes the counterfactual mediator.
decompose_effects splits an effect into its mediated and direct parts, for
the heads' predictions and for the generator's potential outcomes alike;
factual_effects is its part that needs no counterfactual mediator, and
estimate_factual_effects runs only the forwards that part reads.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass

import numpy as np

from .data import DataError
from .nn import DenseNet, _beside, _worker, init_dense

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
class FactualEstimates:
    """Effects from the two factual-world outcomes alone: y(1, m(1)) and
    y(0, m(0)) per individual, with their population aggregates."""

    ite: np.ndarray
    ate: float
    att: float
    pred_t: np.ndarray | None = None   # y(1, m(1)): treated head, treated mediator
    pred_c: np.ndarray | None = None   # y(0, m(0)): control head, control mediator


@dataclass(kw_only=True)
class EffectEstimates(FactualEstimates):
    """FactualEstimates plus the mediated and direct parts of each effect.

    mte_at_t / dte_at_t condition on each individual's factual treatment
    status; dte_at_other holds the mediator at the counterfactual arm, so that
    ite = mte_at_t + dte_at_other per individual.
    """

    mte_at_t: np.ndarray
    dte_at_t: np.ndarray
    dte_at_other: np.ndarray
    ame: float
    ade: float


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


# Inference runs the nets on row blocks of this many rows (the remainder
# merged into the last block), so that no layer output or [Z, M] matrix
# outgrows a block. At one BLAS thread OpenBLAS gives a row the bits of the
# whole call, except on its small-matrix dgemm path (in_dim >= 32 and
# out_dim x rows <= 1200): blocks of 576 rows change the bits of a 2-wide
# layer, 640 do not.
_BLOCK_ROWS = 640


# _predict splits a row block between two threads when the block's rows
# times the parameters of the forwards it runs reach this (nn._worker). At
# one BLAS thread on a 2-vCPU VM, estimate_factual_effects at width 200
# (d = 100) ran a 640-row block (3.5e8) 1.6-1.9x as fast split, 100 rows
# (5.4e7) 0.95-1.3x and 40 rows (2.2e7) 0.77-1.05x; width 32 on 120 rows
# (1.8e6) ran at 0.4-0.5x.
_TWO_THREAD_WORK = 60_000_000
# ... and when every layer wider than 1 has more than this many outputs on
# the smaller half, so that no half takes OpenBLAS's small-matrix path
# (the comment on _BLOCK_ROWS) where the whole block would not.
_SMALL_GEMM = 1200


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

    Per row block of _row_blocks, phi runs once into the left part of one
    [Z, M] matrix. Then one mediator arm at a time (treated first, each arm
    that a pair names) has its mediator net fill the right part, and the
    heads paired with that arm run on it in pair order. No net keeps a tape,
    and a block makes 1 + (arms named) + len(pairs) DenseNet.forward calls:
    seven for estimate_effects' four pairs, five for estimate_factual_effects'
    two factual ones, three for predict_outcomes' one.

    Where nn._worker opens for a block's rows times the parameters of those
    forwards (and _SMALL_GEMM allows), the block is split in two: its first
    half, rounded down to a multiple of 8 rows, runs the same forwards on the
    worker thread while the calling thread runs the rest, so such a block
    makes each of those calls twice, once per half. Both halves write into
    the block's one [Z, M] matrix. The split point is a multiple of 8 rows
    because OpenBLAS takes rows in groups counted from the first row of a
    call (4 at a time in the heads' 1-wide output layer): a half that starts
    inside a group of the whole block, at row 319 or 322 of 639, gives that
    layer other bits, and one that starts at a multiple of 8 keeps them in
    every case the tests try.

    At one BLAS thread the result has the bits of one call on all rows; with
    more threads a fold of 2 * _BLOCK_ROWS rows or more can differ in the
    last bits, since threaded GEMM splits its rows by the size of each call.
    """
    psis = {TREATED: model.psi_t, CONTROL: model.psi_c}
    heads = {TREATED: model.head_t, CONTROL: model.head_c}
    arms = [(psis[arm], [(k, heads[h]) for k, (h, m) in enumerate(pairs) if m == arm])
            for arm in _ARMS]
    arms = [(psi, arm_heads) for psi, arm_heads in arms if arm_heads]
    params = model.phi.theta.size + sum(
        psi.theta.size + sum(head.theta.size for _, head in arm_heads)
        for psi, arm_heads in arms)
    narrowest = min((w.shape[0] for net in (model.phi, *psis.values(), *heads.values())
                     for w in net.weights if w.shape[0] > 1), default=_SMALL_GEMM + 1)
    r_z = model.rep_dim
    out = np.empty((len(pairs), X.shape[0]))

    def run(H, rows):
        H[:, :r_z] = model.phi.forward(X[rows], tape=False)[0]
        for psi, arm_heads in arms:
            H[:, r_z:] = psi.forward(X[rows], tape=False)[0]
            for k, head in arm_heads:
                out[k, rows] = head.forward(H, tape=False)[0][:, 0]

    for rows in _row_blocks(X.shape[0]):
        size = rows.stop - rows.start
        H = np.empty((size, r_z + model.med_dim))
        mid = size // 16 * 8
        split = narrowest * mid > _SMALL_GEMM
        worker = _worker(size * params, _TWO_THREAD_WORK) if split else None
        if worker is None:
            run(H, rows)
            continue
        with _beside(worker, run, H[:mid], slice(rows.start, rows.start + mid)):
            run(H[mid:], slice(rows.start + mid, rows.stop))
    return out


def predict_outcomes(model: DtanetModel, X, head, mediator_arm):
    """Batched head evaluation: head(concat(phi(x), psi_arm(x))) per row,
    three tape-free forwards per row block of _row_blocks."""
    if head not in _ARMS or mediator_arm not in _ARMS:
        raise ValueError(f"arms must be one of {_ARMS}")
    return _predict(model, _covariates(model, X), [(head, mediator_arm)])[0]


def _rows_and_status(model: DtanetModel, X, t):
    """(X, t) as arrays, X checked by _covariates and t holding one status per row."""
    t = np.asarray(t)
    X = _covariates(model, X)
    if X.shape[0] != t.shape[0]:
        raise ValueError("X and t lengths disagree")
    return X, t


def estimate_effects(model: DtanetModel, X, t) -> EffectEstimates:
    """Effect estimates at factual status t: decompose_effects of each head's
    prediction with each arm's mediator representation, seven tape-free
    forwards per row block, one mediator arm at a time. The cross-world
    outcomes y(1, m(0)) and y(0, m(1)) serve only the mediated and direct
    parts; estimate_factual_effects skips them.
    """
    X, t = _rows_and_status(model, X, t)
    pairs = [(h, m) for h in _ARMS for m in _ARMS]  # y1_m1, y1_m0, y0_m1, y0_m0
    return decompose_effects(*_predict(model, X, pairs), t)


def estimate_factual_effects(model: DtanetModel, X, t) -> FactualEstimates:
    """factual_effects of y(1, m(1)) and y(0, m(0)) at factual status t: five
    tape-free forwards per row block (phi, then psi_t and head_t, then psi_c
    and head_c). Its fields hold the bits of estimate_effects' same fields.
    """
    X, t = _rows_and_status(model, X, t)
    return factual_effects(*_predict(model, X, [(TREATED, TREATED), (CONTROL, CONTROL)]), t)


def factual_effects(y1_m1, y0_m0, t) -> FactualEstimates:
    """ite = y(1, m(1)) - y(0, m(0)), its mean (ate) and its mean over the
    rows with factual status t == 1 (att; NaN without any) for t of length n,
    or 1 for every row."""
    treated = np.broadcast_to(np.asarray(t) == 1, y1_m1.shape)
    ite = y1_m1 - y0_m0
    return FactualEstimates(
        ite=ite,
        ate=float(np.mean(ite)) if ite.size else float("nan"),
        att=float(np.mean(ite[treated])) if np.any(treated) else float("nan"),
        pred_t=y1_m1, pred_c=y0_m0,
    )


def decompose_effects(y1_m1, y1_m0, y0_m1, y0_m0, t) -> EffectEstimates:
    """Effects at factual status t (length n, or 1 for every row) from the
    four outcomes y1_m0 = y(1, m(0)) and so on: factual_effects' ite, ate and
    att; mte swaps the mediator arm at the factual treatment; dte swaps the
    treatment at the factual (dte_at_t) or the other (dte_at_other) mediator."""
    treated = np.broadcast_to(np.asarray(t) == 1, y1_m1.shape)
    mte_at_t = np.where(treated, y1_m1 - y1_m0, y0_m1 - y0_m0)
    dte_at_t = np.where(treated, y1_m1 - y0_m1, y1_m0 - y0_m0)
    dte_at_other = np.where(treated, y1_m0 - y0_m0, y1_m1 - y0_m1)
    return EffectEstimates(
        **vars(factual_effects(y1_m1, y0_m0, t)),
        mte_at_t=mte_at_t, dte_at_t=dte_at_t, dte_at_other=dte_at_other,
        ame=float(np.mean(mte_at_t)) if mte_at_t.size else float("nan"),
        ade=float(np.mean(dte_at_t)) if dte_at_t.size else float("nan"),
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
    (pickled data is refused), for a checkpoint_version other than the
    integer scalar CHECKPOINT_VERSION, for a stored seed that is not an
    integer >= 0 (a missing one is fine), for stored covariate_names that
    are not in_dim distinct strings (missing ones are fine), for a missing
    or malformed network, and for any entry besides checkpoint_version,
    config_json and each net's layer0 to layer{k-1} weight and bias (so a
    gap in a net's layers is refused, not read as a shorter net).
    """
    try:
        data = np.load(path, allow_pickle=False)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError("a single array, not an .npz archive")
        with data:
            if "checkpoint_version" not in data:
                raise DataError("no checkpoint_version entry")
            version = data["checkpoint_version"]
            if not (version.shape == () and version.dtype.kind in "iu"
                    and version == CHECKPOINT_VERSION):
                raise DataError(f"unsupported checkpoint version {version.tolist()!r}, "
                                f"expected {CHECKPOINT_VERSION}")
            config = json.loads(str(data["config_json"]))
            if not isinstance(config, dict):
                raise DataError("config_json is not a JSON object")
            seed = config.get("seed", 0)
            if type(seed) is not int or seed < 0:
                raise DataError(f"stored seed {seed!r} is not an integer >= 0")
            nets, read = {}, {"checkpoint_version", "config_json"}
            for name in BUNDLES:
                weights, biases = [], []
                k = 0
                while f"{name}.layer{k}.weight" in data:
                    weights.append(data[f"{name}.layer{k}.weight"])
                    biases.append(data[f"{name}.layer{k}.bias"])
                    read.update((f"{name}.layer{k}.weight", f"{name}.layer{k}.bias"))
                    k += 1
                if not weights:
                    raise DataError(f"the {name} network is missing")
                nets[name] = DenseNet(weights, biases)
            unread = sorted(set(data.files) - read)
            if unread:
                raise DataError(f"entries outside the layer chains: {', '.join(unread)}")
        model = DtanetModel(**nets)
        names = config.get("covariate_names")
        if names is not None and not (
                isinstance(names, list) and all(isinstance(c, str) for c in names)
                and len(set(names)) == len(names) == model.in_dim):
            raise DataError(f"stored covariate_names are not {model.in_dim} "
                            "distinct strings")
        return model, config
    except (ValueError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        # DataError is a ValueError, and so are np.load's refusal of pickled
        # data, malformed JSON and weights whose shapes do not chain
        message = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        raise DataError(f"{path}: not a usable dtanet checkpoint: {message}") from exc
