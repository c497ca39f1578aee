"""Self-tests of the checks: each must pass on good output and fail on a
deliberately wrong one (an altered CSV cell, a perturbed checkpoint weight,
a plan with a shifted marginal, and so on). Run by `run.py --quick`.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import checks

WORK = Path(__file__).resolve().parent / "work" / "selftest"


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class _Cases:
    def __init__(self):
        self.problems = []

    def expect(self, name, good, bad):
        """good: failures on correct output (want none); bad: on wrong output (want some)."""
        if good:
            self.problems.append(f"{name}: fails on correct output: {good}")
        if not bad:
            self.problems.append(f"{name}: passes on wrong output")


def run(program) -> list:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return _run(program)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _cli(program, argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = program.cli.main([str(a) for a in argv])
    if rc != 0:
        raise RuntimeError(f"dtanet {argv} exited {rc}")


def _run(program) -> list:
    cases = _Cases()
    seed, n, d, epochs = 5, 400, 6, 20
    cfg = {"n": n, "d": d, "epochs": epochs, "rep_dim": 16, "med_dim": 16,
           "phi_hidden": [16, 16], "psi_hidden": [16, 16], "head_hidden": [16, 16]}
    (WORK / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    _cli(program, ["generate", "--config", WORK / "config.json", "--out", WORK, "--seed", seed])
    _cli(program, ["train", "--config", WORK / "config.json", "--data", WORK / "dataset.csv",
                   "--out", WORK, "--seed", seed])
    _cli(program, ["evaluate", "--data", WORK / "dataset.csv", "--checkpoint",
                   WORK / "checkpoint.npz", "--out", WORK, "--seed", seed])
    dataset, _ = program.synth.generate(program.synth.SynthConfig(n=n, d=d, seed=seed))
    table = checks.dataset_table(WORK / "dataset.csv")

    # a CSV with one altered cell
    header, rows = _read_rows(WORK / "dataset.csv")
    rows[17][2] = repr(float(np.nextafter(float(rows[17][2]), np.inf)))
    _write_rows(WORK / "altered.csv", header, rows)
    cases.expect("CSV equals generate", checks.same_bits(table, dataset),
                 checks.same_bits(checks.dataset_table(WORK / "altered.csv"), dataset))

    # a checkpoint with one perturbed weight
    nets, _ = checks.load_weights(WORK / "checkpoint.npz")
    bad_nets = {k: [(w.copy(), b.copy()) for w, b in v] for k, v in nets.items()}
    bad_nets["phi"][0][0][0, 0] += 1e-3
    cases.expect("metrics.csv recomputed",
                 checks.metrics_csv(WORK / "metrics.csv", nets, table, seed),
                 checks.metrics_csv(WORK / "metrics.csv", bad_nets, table, seed))

    # effects whose MTE is off by a few ulps in one row
    model, _ = program.model.load_checkpoint(WORK / "checkpoint.npz")
    est = program.model.estimate_effects(model, table["X"], table["t"])
    bad_est = program.model.EffectEstimates(**{**est.__dict__,
                                               "mte_at_t": est.mte_at_t.copy()})
    bad_est.mte_at_t[3] += 8 * np.spacing(max(abs(est.ite[3]), abs(est.mte_at_t[3]),
                                              abs(est.dte_at_other[3])))
    cases.expect("ITE decomposition", checks.ite_identity(est), checks.ite_identity(bad_est))

    # trace.csv with a missing epoch, and with a non-finite cell
    trace = checks.read_trace(WORK / "trace.csv")
    nan_trace = [dict(r) for r in trace]
    nan_trace[1]["l_balan"] = float("nan")
    cases.expect("trace.csv rows", checks.trace_rows(trace, epochs, 1e-6),
                 checks.trace_rows(trace[:-1], epochs, 1e-6))
    cases.expect("trace.csv finite", [], checks.trace_rows(nan_trace, epochs, 1e-6))

    # a checkpoint whose treated head is shifted is not the one trace.csv scored
    far_nets = {**nets, "head_t": nets["head_t"][:-1]
                + [(nets["head_t"][-1][0], nets["head_t"][-1][1] + 100.0)]}
    cases.expect("validation loss",
                 checks.validation_loss(nets, table, seed, 0.5, trace),
                 checks.validation_loss(far_nets, table, seed, 0.5, trace))

    # traced step counts off by one
    cases.expect("step count", checks.step_counts("train", [56], [56]),
                 checks.step_counts("train", [55], [56]))

    # transport plans: the program's own, one with a shifted marginal, one
    # blurred to the independent coupling, one below the LP optimum
    rng = np.random.default_rng(seed)
    C = program.ot.cost_matrix(rng.normal(size=(12, 3)) * 3, rng.normal(size=(10, 3)) * 3)
    plan = program.ot.sinkhorn(C, 0.1, tol=1e-6, log_domain=True)
    shifted = plan.gamma.copy()
    shifted[0] *= 1.01
    shifted[1] -= plan.gamma[0] * 0.01
    good_rec = {"measured": checks.marginal_error(plan.gamma, plan.p, plan.q), "tol": 1e-6}
    bad_rec = {"measured": checks.marginal_error(shifted * 1.0001, plan.p, plan.q), "tol": 1e-6}
    cases.expect("plan marginals", checks.plan_marginals([good_rec]),
                 checks.plan_marginals([good_rec, bad_rec]))
    uniform = np.outer(plan.p, plan.q)
    cheapest = np.zeros_like(C)
    cheapest[np.unravel_index(np.argmin(C), C.shape)] = 1.0
    cases.expect("LP upper bound", checks.lp_bounds(C, plan.gamma, 0.1, 1e-6),
                 checks.lp_bounds(C, uniform, 10.0, 1e-6))
    cases.expect("LP lower bound", [], checks.lp_bounds(C, cheapest, 0.1, 1e-6))

    # a sensitivity sweep, then its files with one trial failed or true_ame moved
    sweep = {**cfg, "n": 120, "epochs": 2}
    (WORK / "sweep.json").write_text(json.dumps(sweep), encoding="utf-8")
    _cli(program, ["sensitivity", "--config", WORK / "sweep.json", "--out", WORK / "sweep",
                   "--seed", seed, "--trials", 2, "--rho", 0.0, "--rho", 0.5])
    samples = WORK / "sweep" / "sensitivity_samples.csv"
    summary = WORK / "sweep" / "sensitivity.csv"
    synth = program.synth.SynthConfig()
    good = checks.sensitivity(samples, summary, (0.0, 0.5), 2, synth.b, synth.c)
    header, rows = _read_rows(samples)
    rows[1][2:] = ["", "", "error: boom"]
    _write_rows(WORK / "failed_samples.csv", header, rows)
    cases.expect("sweep trials ok", good, checks.sensitivity(
        WORK / "failed_samples.csv", summary, (0.0, 0.5), 2, synth.b, synth.c))
    header, rows = _read_rows(summary)
    rows[0][1] = repr(float(rows[0][1]) + 1e-9)
    _write_rows(WORK / "moved_summary.csv", header, rows)
    cases.expect("sweep true_ame", good, checks.sensitivity(
        samples, WORK / "moved_summary.csv", (0.0, 0.5), 2, synth.b, synth.c))

    row = checks.sample_row(samples, 0.5, 1)
    nudged = {**row, "ame": repr(float(np.nextafter(float(row["ame"]), np.inf)))}
    cases.expect("trial rerun alone", checks.same_trial(row, dict(row)),
                 checks.same_trial(row, nudged))
    return cases.problems
