"""Experiment drivers: generate, train, evaluate, gridsearch, explain, sensitivity.

Every subcommand is reproducible: the config file plus the seed fully
determine the emitted CSVs. Figures are not rendered; each analysis emits a
plot-ready CSV instead.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple, fields, replace
from pathlib import Path

import numpy as np

from . import metrics, ot
from .data import DataError, ObservationalDataset, load_csv, split, write_csv, write_rows
from .model import (estimate_effects, estimate_factual_effects, load_checkpoint,
                    save_checkpoint)
from .synth import SynthConfig, generate
from .training import TraceRecord, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

DEFAULT_GRID = ((0.1, 0.15, 0.2), (0.3, 0.375, 0.45))


class UsageError(ValueError):
    pass


def load_config(path) -> tuple[dict, dict]:
    """Split a flat JSON config into SynthConfig and TrainConfig kwargs."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config must be a flat JSON object")
    synth_keys = {f.name for f in fields(SynthConfig)}
    train_keys = {f.name for f in fields(TrainConfig)}
    for key in raw:
        if key not in synth_keys and key not in train_keys:
            raise UsageError(f"unknown config key: {key}")
    return ({k: v for k, v in raw.items() if k in synth_keys},
            {k: v for k, v in raw.items() if k in train_keys})


def _configs(args, seed=None) -> tuple[SynthConfig, TrainConfig]:
    """The configs of --config, seeded by --seed, else by the file, else by seed."""
    synth_kwargs, train_kwargs = load_config(args.config) if args.config else ({}, {})
    seed = train_kwargs.get("seed", seed) if args.seed is None else args.seed
    if seed is not None:
        synth_kwargs["seed"] = train_kwargs["seed"] = seed
    try:
        return SynthConfig(**synth_kwargs), TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid config: {exc}") from exc


def _outdir(args) -> Path:
    """--out, created if need be. Each command asks just before it writes its
    first file, so one that fails earlier leaves no directory behind."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def evaluate_model(model, dataset: ObservationalDataset, idx) -> metrics.MetricsReport:
    """Metrics on a subset; ground-truth metrics only when the dataset has them.

    CSV-borne ground truth carries the two factual-world potential outcomes,
    so PEHE/ATE/ATT are computable; the mediated/direct splits need the cross
    terms and stay unset here. So the model predicts only its two factual
    outcomes (estimate_factual_effects, five forwards per row block), and the
    report has the bytes that estimate_effects' seven forwards would give.
    """
    idx = np.asarray(idx)
    t = dataset.t[idx]
    est = estimate_factual_effects(model, dataset.X[idx], t)
    true_ite = dataset.true_ite()[idx] if dataset.has_ground_truth else None
    return metrics.effect_report(est, t, true_ite=true_ite)


def _train_on(dataset, train_cfg):
    parts = split(dataset.n, train_cfg.seed)
    model, trace = train(dataset, train_cfg, parts.train, parts.validation)
    if any(rec.sinkhorn_residual > train_cfg.sinkhorn_tol for rec in trace):
        print("warning: Sinkhorn hit max_iter before the marginal tolerance "
              "in at least one batch", file=sys.stderr)
    return model, trace


def _trial(dataset, train_cfg):
    """A sweep trial: _train_on's (model, trace, "ok"), or (None, None, "error: ...")."""
    try:
        return *_train_on(dataset, train_cfg), "ok"
    except FloatingPointError as exc:
        return None, None, f"error: {exc}"


def cmd_generate(args) -> int:
    synth_cfg, _ = _configs(args)
    dataset, _ = generate(synth_cfg)
    path = _outdir(args) / "dataset.csv"
    write_csv(path, dataset)
    print(f"wrote {path} ({dataset.n} rows, {dataset.d} covariates)")
    return EXIT_OK


def cmd_train(args) -> int:
    _, train_cfg = _configs(args)
    dataset = load_csv(args.data)
    model, trace = _train_on(dataset, train_cfg)
    out = _outdir(args)
    ckpt = out / "checkpoint.npz"
    save_checkpoint(ckpt, model,
                    {**asdict(train_cfg), "covariate_names": dataset.covariate_names})
    write_rows(out / "trace.csv", [f.name for f in fields(TraceRecord)],
               map(astuple, trace))
    print(f"wrote {ckpt} and {out / 'trace.csv'}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    model, stored_cfg = load_checkpoint(args.checkpoint)
    # split as in training unless --seed or the config file names a seed
    _, train_cfg = _configs(args, stored_cfg.get("seed"))
    dataset = load_csv(args.data)
    if dataset.d != model.in_dim:
        raise DataError(f"{args.data}: {dataset.d} covariate columns, "
                        f"the checkpoint's model reads {model.in_dim}")
    trained_on = stored_cfg.get("covariate_names")  # absent in older checkpoints
    if trained_on is not None and trained_on != dataset.covariate_names:
        j = next(j for j, (a, b) in enumerate(zip(trained_on, dataset.covariate_names))
                 if a != b)
        raise DataError(f"{args.data}: covariate column {j + 1} is "
                        f"{dataset.covariate_names[j]!r}, the checkpoint's model "
                        f"was trained with {trained_on[j]!r} there")
    parts = split(dataset.n, train_cfg.seed)
    rows = []
    for scope, idx in (("in_sample", parts.validation), ("out_of_sample", parts.test)):
        if len(idx) == 0:
            continue
        rows.append([scope, *astuple(evaluate_model(model, dataset, idx))])
    path = _outdir(args) / "metrics.csv"
    write_rows(path, ["scope", *(f.name for f in fields(metrics.MetricsReport))], rows)
    print(f"wrote {path}")
    return EXIT_OK


def _parse_grid(spec: str):
    try:
        left, right = spec.split("x")
        l1 = tuple(float(v) for v in left.split(","))
        l2 = tuple(float(v) for v in right.split(","))
    except ValueError as exc:
        raise UsageError(f"--grid must look like '0.1,0.2x0.3,0.45': {exc}") from exc
    if not all(math.isfinite(v) and v >= 0 for v in l1 + l2):
        raise UsageError(f"--grid values must be finite and >= 0: {spec}")
    return l1, l2


def cmd_gridsearch(args) -> int:
    _, train_cfg = _configs(args)
    if train_cfg.epochs < 1:
        raise UsageError("gridsearch needs epochs >= 1 to score each cell")
    l1_values, l2_values = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
    dataset = load_csv(args.data)
    if len(split(dataset.n, train_cfg.seed).validation) == 0:
        raise DataError(f"gridsearch needs 6 rows for a validation row, got {dataset.n}")
    rows = []
    for lam1 in l1_values:
        for lam2 in l2_values:
            cell = replace(train_cfg, lambda1=lam1, lambda2=lam2)
            _, trace, status = _trial(dataset, cell)
            val = min(rec.val_l_y for rec in trace) if trace else None
            rows.append([lam1, lam2, val, status])
    write_rows(_outdir(args) / "grid.csv", ["lambda1", "lambda2", "val_l_y", "status"], rows)
    # min keeps the first of equal values, and a NaN in the first ok row
    best = min((r for r in rows if r[3] == "ok"), key=lambda r: r[2], default=None)
    if best is None:
        print("every grid cell failed", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"best cell: lambda1={best[0]} lambda2={best[1]} val_l_y={best[2]}")
    return EXIT_OK


def _effect_samples(label, datasets, train_cfg, rows):
    """Train and estimate once per dataset; trial k is seeded train_cfg.seed + k.

    Appends one samples row per trial, an `error:` row for a trial whose
    training diverged, and returns the AME and ADE lists of the trials that
    finished. datasets may be a generator, so only one trial's data is alive
    at a time.
    """
    ame_list, ade_list = [], []
    for trial, dataset in enumerate(datasets):
        cfg = replace(train_cfg, seed=train_cfg.seed + trial)
        model, _, status = _trial(dataset, cfg)
        if model is None:
            rows.append([label, trial, None, None, status])
            continue
        est = estimate_effects(model, dataset.X, dataset.t)
        ame_list.append(est.ame)
        ade_list.append(est.ade)
        rows.append([label, trial, est.ame, est.ade, "ok"])
    return ame_list, ade_list


def cmd_explain(args) -> int:
    if args.trials < 2:
        raise UsageError("--trials must be at least 2")
    synth_cfg, train_cfg = _configs(args)
    source = load_csv(args.data) if args.data else None
    first = source if source is not None else generate(synth_cfg)[0]
    groups = [tuple(g.split(",")) for g in args.exclude] if args.exclude \
        else [(name,) for name in first.covariate_names]
    runs = [("baseline", ())] + [("+".join(g), g) for g in groups]
    labels = [label for label, _ in runs]
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise UsageError(f"exclusion group {label!r} is named twice "
                             "(the baseline is labelled 'baseline')")
    for group in groups:
        first.drop_covariates(group)  # raises DataError for an unknown name

    def dataset_for(trial, drop):
        if source is not None:
            ds = source
        else:
            ds, _ = generate(replace(synth_cfg, seed=synth_cfg.seed + trial))
        return ds.drop_covariates(drop) if drop else ds

    sample_rows, samples = [], {}
    for label, drop in runs:
        samples[label] = _effect_samples(
            label, (dataset_for(trial, drop) for trial in range(args.trials)),
            train_cfg, sample_rows)
    out = _outdir(args)
    write_rows(out / "explain_samples.csv",
               ["exclude", "trial", "ame", "ade", "status"], sample_rows)

    base_ame, base_ade = samples["baseline"]
    dist_rows = []
    for label, (ame_list, ade_list) in samples.items():
        if label == "baseline" or not ame_list or not base_ame:
            continue
        w_med = ot.wasserstein_1d(base_ame, ame_list)
        w_dir = ot.wasserstein_1d(base_ade, ade_list)
        dist_rows.append([label, w_med, w_dir, w_med * 1e3, w_dir * 1e3])
    write_rows(out / "explain_distances.csv",
               ["exclude", "w1_mediate", "w1_direct",
                "w1_mediate_x1000", "w1_direct_x1000"], dist_rows)
    print(f"wrote {out / 'explain_samples.csv'} and {out / 'explain_distances.csv'}")
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    synth_cfg, train_cfg = _configs(args)
    rhos = sorted(set(args.rho if args.rho else [0.0]))
    if not all(-1 <= r <= 1 for r in rhos):
        raise UsageError("every --rho must lie in [-1, 1]")

    def draws(rho, true_ames):
        for trial in range(args.trials):
            cfg = replace(synth_cfg, rho=rho, seed=synth_cfg.seed + trial)
            dataset, truth = generate(cfg)
            true_ames.append(truth.effects(dataset.t).ame)
            yield dataset

    sample_rows, summary_rows = [], []
    for rho in rhos:
        true_ames = []
        ame_list, ade_list = _effect_samples(rho, draws(rho, true_ames),
                                             train_cfg, sample_rows)
        stats = ((np.mean, ame_list), (np.std, ame_list), (np.min, ame_list),
                 (np.max, ame_list), (np.mean, ade_list), (np.std, ade_list))
        cells = [f(v) if ame_list else None for f, v in stats]
        summary_rows.append([rho, true_ames[-1], *cells, len(ame_list)])
    out = _outdir(args)
    write_rows(out / "sensitivity_samples.csv",
               ["rho", "trial", "ame", "ade", "status"], sample_rows)
    write_rows(out / "sensitivity.csv",
               ["rho", "true_ame", "ame_mean", "ame_std", "ame_min", "ame_max",
                "ade_mean", "ade_std", "n_trials"], summary_rows)
    print(f"wrote {out / 'sensitivity.csv'}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dtanet",
                     description="Treatment-adaptive network experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("generate", help="write a synthetic dataset CSV")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a model, write checkpoint + trace")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="metrics on validation and test splits")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gridsearch", help="grid over (lambda1, lambda2)")
    common(p)
    p.add_argument("--data", required=True, help="dataset CSV path")
    p.add_argument("--grid", help="grid spec like '0.1,0.2x0.3,0.45'")
    p.set_defaults(func=cmd_gridsearch)

    p = sub.add_parser("explain", help="covariate-exclusion effect distributions")
    common(p)
    p.add_argument("--data", help="dataset CSV path; synthetic draws when absent")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--exclude", action="append",
                   help="covariate name(s) to drop jointly, comma-separated; repeatable")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("sensitivity", help="effect-vs-rho robustness sweep")
    common(p)
    p.add_argument("--rho", action="append", type=float,
                   help="noise correlation; repeatable")
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(func=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = Path(args.out).absolute()
        if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
            raise NotADirectoryError(f"--out {args.out}: a file is in the way")
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
