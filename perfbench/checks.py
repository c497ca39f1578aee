"""Correctness checks on the program's outputs, computed apart from the program.

Every check returns a list of failure messages; an empty list means it
passed. The references are either recomputed here with plain NumPy (the
split, the ELU-MLP forward pass on weights read straight from the `.npz`,
the metrics, an LP optimum from SciPy) or are properties the method must
have (marginals of a transport plan, the ITE decomposition, ground-truth
effects of the generator). None is a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# Recomputed metrics run the same float64 arithmetic as the program, in a
# possibly different summation order; 1e-9 relative is far above that
# rounding and far below the change one perturbed weight makes.
REL_TOL = 1e-9
ITE_ULPS = 4
GT_COLUMNS = ("gt_y0", "gt_y1", "gt_m0", "gt_m1")
BUNDLES = ("phi", "psi_t", "psi_c", "head_t", "head_c")


def split_folds(n, seed):
    """(train, validation, test) indices: the documented 80/20 split with 20%
    of the training part held out for validation, drawn from one permutation."""
    perm = np.random.default_rng(seed).permutation(n)
    n_test = int(0.2 * n)
    n_val = int(0.2 * (n - n_test))
    return perm[n_test + n_val:], perm[n_test:n_test + n_val], perm[:n_test]


def steps_per_epoch(t_train, cfg):
    """Paired steps per epoch on a training fold; the larger batch sets it, as in training.train."""
    n_t = int(np.sum(t_train == 1))
    batch = max(cfg.batch_size_t, cfg.batch_size_c)
    return max(1, math.ceil(max(n_t, t_train.size - n_t) / batch))


def read_table(path):
    """(header, float matrix) parsed row by row with the csv module and float()."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [np.fromiter(map(float, row), dtype=float, count=len(header))
                for row in reader]
    return header, np.vstack(rows)


def dataset_table(path):
    """Columns of a dataset CSV by name: X, t, y and the ground-truth columns."""
    header, values = read_table(path)
    col = {name: values[:, j] for j, name in enumerate(header)}
    covariates = [c for c in header if c not in ("t", "y", *GT_COLUMNS)]
    return {"X": values[:, [header.index(c) for c in covariates]], "t": col["t"],
            "y": col["y"], **{c: col[c] for c in GT_COLUMNS if c in col}}


def _bits(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64)).view(np.int64)


def same_bits(table, dataset) -> list:
    """The parsed CSV equals the generator's in-memory arrays bit for bit."""
    fails = []
    pairs = [("X", dataset.X), ("t", dataset.t), ("y", dataset.y),
             *((c, getattr(dataset, c)) for c in GT_COLUMNS)]
    for name, want in pairs:
        got = table.get(name)
        if got is None or got.shape != np.shape(want):
            fails.append(f"CSV column {name}: shape {None if got is None else got.shape}"
                         f" != {np.shape(want)}")
            continue
        bad = np.argwhere(_bits(got) != _bits(want))
        if bad.size:
            fails.append(f"CSV column {name}: {len(bad)} cells differ from generate, "
                         f"first at data row {bad[0][0] + 1}")
    return fails


def load_weights(path):
    """({bundle: [(W, b), ...]}, config) read directly from the checkpoint archive."""
    with np.load(path, allow_pickle=False) as archive:
        nets = {}
        for name in BUNDLES:
            layers, k = [], 0
            while f"{name}.layer{k}.weight" in archive:
                layers.append((archive[f"{name}.layer{k}.weight"],
                               archive[f"{name}.layer{k}.bias"]))
                k += 1
            nets[name] = layers
        config = json.loads(str(archive["config_json"]))
    return nets, config


def mlp(layers, x):
    """Affine layers with ELU between them and an identity output."""
    for k, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if k < len(layers) - 1:
            x = np.where(x > 0, x, np.expm1(np.minimum(x, 0.0)))
    return x


def potential_outcomes(nets, X):
    """Predicted y(head, mediator arm) for the four head/mediator pairings."""
    Z, M_t, M_c = mlp(nets["phi"], X), mlp(nets["psi_t"], X), mlp(nets["psi_c"], X)
    out = {}
    for head in ("t", "c"):
        for arm, M in (("t", M_t), ("c", M_c)):
            out[head + arm] = mlp(nets["head_" + head], np.hstack([Z, M]))[:, 0]
    return out


def fold_metrics(nets, table, idx) -> dict:
    """Root PEHE, ATE/ATT error and policy risk of one fold, from ground truth."""
    X, t = table["X"][idx], table["t"][idx]
    y = potential_outcomes(nets, X)
    ite = y["tt"] - y["cc"]
    true = (table["gt_y1"] - table["gt_y0"])[idx]
    treated = t == 1
    policy = ite > 0
    risk = 1.0
    if policy.any():
        risk -= float(np.mean(y["tt"][policy])) * float(np.mean(policy))
    if (~policy).any():
        risk -= float(np.mean(y["cc"][~policy])) * float(np.mean(~policy))
    out = {"sqrt_pehe": math.sqrt(float(np.mean((true - ite) ** 2))),
           "eps_ate": abs(float(np.mean(ite)) - float(np.mean(true))),
           "policy_risk": risk}
    if treated.any():
        out["eps_att"] = abs(float(np.mean(ite[treated])) - float(np.mean(true[treated])))
    return out


def close(got, want, rel=REL_TOL):
    return abs(got - want) <= rel * max(1.0, abs(want))


def metrics_csv(path, nets, table, seed) -> list:
    """metrics.csv against metrics recomputed from ground truth and the weights."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = {row["scope"]: row for row in csv.DictReader(fh)}
    _, val, test = split_folds(len(table["t"]), seed)
    fails = []
    for scope, idx in (("in_sample", val), ("out_of_sample", test)):
        if scope not in rows:
            fails.append(f"metrics.csv has no {scope} row")
            continue
        for key, want in fold_metrics(nets, table, idx).items():
            cell = rows[scope][key]
            if not cell or not math.isfinite(float(cell)) or not close(float(cell), want):
                fails.append(f"metrics.csv {scope} {key} = {cell!r}, recomputed {want!r}")
        for key in ("eps_mte", "eps_dte"):
            if rows[scope][key]:
                fails.append(f"metrics.csv {scope} {key} should be empty for CSV data")
    return fails


def ite_identity(est) -> list:
    """ITE = MTE(t) + DTE(1-t) per row, within ITE_ULPS units in the last place."""
    parts = est.mte_at_t + est.dte_at_other
    scale = np.maximum.reduce([np.abs(est.ite), np.abs(est.mte_at_t), np.abs(est.dte_at_other)])
    ulps = np.abs(est.ite - parts) / np.spacing(scale)
    worst = int(np.argmax(ulps)) if ulps.size else 0
    if ulps.size and ulps[worst] > ITE_ULPS:
        return [f"ITE != MTE(t) + DTE(1-t) at row {worst}: off by {ulps[worst]:.1f} ulps"]
    return []


def outcome_loss(pred_t, y_t, pred_c, y_c, lambda0):
    return (lambda0 * float(np.mean((pred_t - y_t) ** 2))
            + (1 - lambda0) * float(np.mean((pred_c - y_c) ** 2)))


def validation_loss(nets, table, seed, lambda0, trace_rows) -> list:
    """The checkpoint is the best-validation snapshot: its outcome loss on the
    validation fold, recomputed from its weights, is the lowest trace.csv recorded.

    Whether that loss beats predicting each arm's training mean is not checked:
    on some seeds the estimator loses to the arm means (see CHANGES.md).
    """
    _, val, _ = split_folds(len(table["t"]), seed)
    X, t, y = table["X"][val], table["t"][val], table["y"][val]
    pred = potential_outcomes(nets, X)
    model = outcome_loss(pred["tt"][t == 1], y[t == 1], pred["cc"][t == 0], y[t == 0], lambda0)
    best = min(row["val_l_y"] for row in trace_rows) if trace_rows else math.nan
    if not close(model, best):
        return [f"checkpoint validation loss {model!r} != best trace.csv val_l_y {best!r}"]
    return []


def read_trace(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def trace_rows(rows, epochs, tol) -> list:
    """One finite row per epoch, numbered 0..epochs-1, every plan within tol."""
    fails = []
    if [int(r["epoch"]) for r in rows] != list(range(epochs)):
        fails.append(f"trace.csv has epochs {[int(r['epoch']) for r in rows]}, "
                     f"expected 0..{epochs - 1}")
    for r in rows:
        if not all(math.isfinite(v) for v in r.values()):
            fails.append(f"trace.csv epoch {int(r['epoch'])} has a non-finite value")
        elif r["sinkhorn_residual"] > tol:
            fails.append(f"trace.csv epoch {int(r['epoch'])}: Sinkhorn residual "
                         f"{r['sinkhorn_residual']!r} > {tol!r}")
    return fails


def marginal_error(gamma, p, q) -> float:
    """Largest deviation of a plan's row and column sums from p and q."""
    return max(float(np.max(np.abs(gamma.sum(axis=1) - p))),
               float(np.max(np.abs(gamma.sum(axis=0) - q))))


def step_counts(kind, got, expected) -> list:
    if got != expected:
        return [f"traced `{kind}` ran {got} steps per model, expected {expected}"]
    return []


def plan_marginals(plans) -> list:
    """Every traced plan's marginals, measured by the tracer, meet its tol."""
    bad = [p for p in plans if not p["measured"] <= p["tol"]]
    if bad:
        return [f"{len(bad)} of {len(plans)} traced plans miss their marginals; worst "
                f"{max(p['measured'] for p in bad)!r} > tol {bad[0]['tol']!r}"]
    return []


def lp_bounds(C, gamma, reg, tol) -> list:
    """LP optimum <= <C, gamma> <= LP optimum + entropy(gamma) / reg.

    The lower bound allows for marginals that are off by up to tol: by LP
    duality <C, gamma> >= OPT - tol * (|alpha|_1 + |beta|_1) for any plan
    whose marginals are within tol of the uniform ones.
    """
    n_c, n_t = C.shape
    a_rows = sparse.kron(sparse.eye(n_c), np.ones((1, n_t)))
    a_cols = sparse.kron(np.ones((1, n_c)), sparse.eye(n_t))
    a_eq = sparse.vstack([a_rows, a_cols]).tocsr()
    b_eq = np.concatenate([np.full(n_c, 1.0 / n_c), np.full(n_t, 1.0 / n_t)])
    res = linprog(C.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        return [f"linprog failed: {res.message}"]
    opt = float(res.fun)
    slack = tol * float(np.sum(np.abs(res.eqlin.marginals))) + 1e-9 * max(1.0, abs(opt))
    cost = float(np.sum(C * gamma))
    g = gamma[gamma > 0]
    entropy = float(-np.sum(g * np.log(g)))
    fails = []
    if cost < opt - slack:
        fails.append(f"plan cost {cost!r} below the LP optimum {opt!r}")
    if cost > opt + entropy / reg + slack:
        fails.append(f"plan cost {cost!r} above LP optimum + entropy/reg "
                     f"= {opt + entropy / reg!r}")
    return fails


def sensitivity(samples_path, summary_path, rhos, trials, b, c) -> list:
    """Every trial ok with finite effects; true_ame = b*c; summaries agree."""
    with open(samples_path, newline="", encoding="utf-8") as fh:
        samples = list(csv.DictReader(fh))
    with open(summary_path, newline="", encoding="utf-8") as fh:
        summary = {float(r["rho"]): r for r in csv.DictReader(fh)}
    fails = []
    if len(samples) != len(rhos) * trials:
        fails.append(f"{len(samples)} sensitivity samples, expected {len(rhos) * trials}")
    for r in samples:
        if r["status"] != "ok" or not (math.isfinite(float(r["ame"] or "nan"))
                                       and math.isfinite(float(r["ade"] or "nan"))):
            fails.append(f"trial rho={r['rho']} #{r['trial']}: status {r['status']!r}, "
                         f"ame {r['ame']!r}, ade {r['ade']!r}")
    for rho in rhos:
        row = summary.get(rho)
        if row is None:
            fails.append(f"sensitivity.csv has no row for rho={rho}")
            continue
        if not close(float(row["true_ame"]), b * c, rel=1e-12):
            fails.append(f"rho={rho}: true_ame {row['true_ame']} != b*c = {b * c!r}")
        ames = [float(r["ame"]) for r in samples if float(r["rho"]) == rho and r["status"] == "ok"]
        if int(row["n_trials"]) != trials or not ames or not close(
                float(row["ame_mean"]), float(np.mean(ames))):
            fails.append(f"rho={rho}: summary n_trials={row['n_trials']} "
                         f"ame_mean={row['ame_mean']} disagree with the samples")
    return fails


def sample_row(samples_path, rho, trial):
    with open(samples_path, newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            if float(r["rho"]) == rho and int(r["trial"]) == trial:
                return r
    return None


def same_trial(full, alone) -> list:
    """A trial rerun alone reproduces the sweep's AME and ADE bit for bit."""
    if full is None or alone is None:
        return ["the rerun trial is missing from one of the sample files"]
    if (full["ame"], full["ade"]) != (alone["ame"], alone["ade"]):
        return [f"trial rerun alone gives ame/ade {alone['ame']}/{alone['ade']}, "
                f"in the sweep {full['ame']}/{full['ade']}"]
    return []
