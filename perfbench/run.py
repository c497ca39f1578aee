"""Benchmark of the dtanet program, run from the root of a source checkout.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --quick

A run builds its inputs from --seed (set-up, timed as setup_s), then runs
whole rounds of the workload's `dtanet` commands in this process through
`dtanet.cli.main` until --seconds have passed, checks the outputs, and
prints one JSON line last: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
alternates untraced and traced rounds and reports the per-layer metrics
from the spans. --quick runs every workload at toy size, traced and not,
together with the self-tests of the checks. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SETUP_REPEATS = 3

# One BLAS thread, set before NumPy loads. With two OpenBLAS threads on a
# 2-vCPU guest every small GEMM waits for both vCPUs, so the training rates
# follow the host's load on the second one: the same sweep gave medians of
# 258 and 171 steps/s in two sets of runs (see README.md).
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({var: "1" for var in BLAS_ENV})


def import_program():
    """The dtanet package from this checkout's src/, or exit 2 without a result."""
    src = ROOT / "src"
    if not (src / "dtanet" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src / 'dtanet'}; "
              "run from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import dtanet
    from dtanet import cli, data, model, nn, ot, synth, training
    if Path(dtanet.__file__).resolve().parent != (src / "dtanet").resolve():
        print(f"perfbench: imported dtanet from {dtanet.__file__}, not from {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return SimpleNamespace(cli=cli, data=data, model=model, nn=nn, ot=ot, synth=synth,
                           training=training, version=dtanet.__version__)


import checks    # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import tracing   # noqa: E402


class Session:
    """Runs `dtanet` commands in this process and keeps one record per command."""

    def __init__(self, program, tracer=None):
        self.main = program.cli.main
        self.tracer = tracer
        self.records = []
        self.phase = "setup"
        self.traced = False

    def cli(self, kind, argv):
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        span = None
        with redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if self.traced:
                    with self.tracer.span("cli.main") as span:
                        rc = self.main(argv)
                else:
                    rc = self.main(argv)
            except Exception:   # the program let an exception escape: a failed operation
                rc = None
                traceback.print_exc()
            wall = time.perf_counter() - t0
        record = {"kind": kind, "argv": argv, "rc": rc, "wall": wall, "phase": self.phase,
                  "traced": self.traced, "stderr": err.getvalue(), "span": span}
        if rc != 0:
            print(f"perfbench: `dtanet {' '.join(argv)}` exited {rc}:\n{err.getvalue()}",
                  file=sys.stderr)
        self.records.append(record)
        return record

    def ok(self, kind):
        """Untraced successful records of one command kind in the rounds."""
        return [r for r in self.records if r["kind"] == kind and r["rc"] == 0
                and not r["traced"] and r["phase"] == "round"]


def widths(w):
    return {"rep_dim": w, "med_dim": w, "phi_hidden": [w, w], "psi_hidden": [w, w],
            "head_hidden": [w, w]}


def write_json(path, obj):
    path.write_text(json.dumps(obj, sort_keys=True), encoding="utf-8")


def median(values):
    return statistics.median(values) if values else math.nan


class Workload:
    """Set-up, one round, end-to-end metrics and checks of one workload.

    Every round runs `dtanet generate`, a training command and `dtanet
    evaluate`, so that each end-to-end metric is measured on each workload
    from operations spread over the whole run; what dominates differs.
    """

    name = ""

    def __init__(self, program, work: Path, seed: int, quick: bool):
        self.p = program
        self.work = work
        self.seed = seed
        self.quick = quick
        self._tables = {}

    def path(self, *parts):
        return self.work.joinpath(*parts)

    def seeds(self) -> dict:
        return {"data": self.seed, "train": self.seed}

    def table(self, csv_path):
        """The dataset CSV parsed apart from the program, once per run."""
        if csv_path not in self._tables:
            self._tables[csv_path] = checks.dataset_table(csv_path)
        return self._tables[csv_path]

    def train_config(self, config):
        return self.p.training.TrainConfig(**{k: v for k, v in config.items()
                                              if k not in ("n", "d", "rho")})

    def steps(self, csv_path, config, seed):
        """Paired steps one `dtanet train` with this config runs on this CSV's split."""
        cfg = self.train_config(config)
        train, _, _ = checks.split_folds(len(self.table(csv_path)["t"]), seed)
        return cfg.epochs * checks.steps_per_epoch(self.table(csv_path)["t"][train], cfg)

    def row_rates(self, s):
        return {"generate_rows_per_s": median([self.n / r["wall"] for r in s.ok("generate")]),
                "evaluate_rows_per_s": median([self.n / r["wall"] for r in s.ok("evaluate")])}

    def check_dataset(self, csv_path, synth_config):
        """The CSV `dtanet generate` wrote holds the generator's arrays bit for bit."""
        dataset, _ = self.p.synth.generate(synth_config)
        return checks.same_bits(self.table(csv_path), dataset)

    def check_scores(self, csv_path, ckpt, metrics_path, seed):
        """metrics.csv recomputed from the weights; the ITE decomposition per row."""
        table = self.table(csv_path)
        nets, _ = checks.load_weights(ckpt)
        fails = checks.metrics_csv(metrics_path, nets, table, seed)
        model, _ = self.p.model.load_checkpoint(ckpt)
        _, val, test = checks.split_folds(len(table["t"]), seed)
        for idx in (val, test):
            est = self.p.model.estimate_effects(model, table["X"][idx], table["t"][idx])
            fails += checks.ite_identity(est)
        return fails

    def traced_steps(self, session, tracer, kind, expected):
        """Each traced `kind` command trained its models for the expected steps."""
        if tracer is None:
            return []
        per_train = {}
        for span in tracer.spans:
            if span.name == "training.train_step":
                train = next(a for a in span.ancestors() if a.name == "training.train")
                per_train[id(train)] = per_train.get(id(train), 0) + 1
        fails = []
        for rec in session.records:
            if rec["kind"] != kind or rec["span"] is None:
                continue
            trains = sorted((s for s in tracer.spans if s.name == "training.train"
                             and rec["span"] in s.ancestors()), key=lambda s: s.start)
            fails += checks.step_counts(kind, [per_train.get(id(s), 0) for s in trains],
                                        expected)
        return fails


class TrainDefault(Workload):
    """Training at the paper's shape, then scoring a large CSV with the new checkpoint.

    Each round runs `dtanet train` for a few epochs on a training CSV that
    set-up writes, `dtanet generate` of a large CSV, and `dtanet evaluate` of
    that CSV with the checkpoint just trained. Training is GEMM-bound; the
    generate and evaluate rates involve CSV I/O and inference only, no
    backward pass, Adam or Sinkhorn.
    """

    name = "train-default"

    def __init__(self, *a):
        super().__init__(*a)
        self.n, self.d, self.train_n, self.epochs = ((400, 8, 200, 3) if self.quick
                                                     else (20000, 100, 1500, 4))
        self.score_config = {"n": self.n, "d": self.d}
        self.train_cfg = {"n": self.train_n, "d": self.d, "epochs": self.epochs,
                          **(widths(16) if self.quick else {})}
        self.csv = self.path("data", "dataset.csv")
        self.train_csv = self.path("train.csv")
        self.ckpt = self.path("model", "checkpoint.npz")

    def setup(self, s):
        write_json(self.path("score.json"), self.score_config)
        write_json(self.path("train.json"), self.train_cfg)
        synth = self.p.synth.SynthConfig(n=self.train_n, d=self.d, seed=self.seed)
        self.p.data.write_csv(self.train_csv, self.p.synth.generate(synth)[0])

    def round(self, s):
        s.cli("train", ["train", "--config", self.path("train.json"), "--data", self.train_csv,
                        "--out", self.path("model"), "--seed", self.seed])
        s.cli("generate", ["generate", "--config", self.path("score.json"),
                           "--out", self.path("data"), "--seed", self.seed])
        s.cli("evaluate", ["evaluate", "--data", self.csv, "--checkpoint", self.ckpt,
                           "--out", self.path("eval"), "--seed", self.seed])

    def e2e(self, s, round_walls):
        # a round is one trial: one train, one generate, one evaluate
        steps = self.steps(self.train_csv, self.train_cfg, self.seed)
        return {"train_steps_per_s": median([steps / r["wall"] for r in s.ok("train")]),
                "trials_per_min": median([60.0 / w for w in round_walls]), **self.row_rates(s)}

    def check(self, s, tracer):
        cfg = self.train_config(self.train_cfg)
        synth = self.p.synth.SynthConfig(n=self.n, d=self.d, seed=self.seed)
        fails = self.check_dataset(self.csv, synth)
        fails += self.check_scores(self.csv, self.ckpt, self.path("eval", "metrics.csv"),
                                   self.seed)
        rows = checks.read_trace(self.path("model", "trace.csv"))
        fails += checks.trace_rows(rows, self.epochs, cfg.sinkhorn_tol)
        nets, _ = checks.load_weights(self.ckpt)
        fails += checks.validation_loss(nets, self.table(self.train_csv), self.seed,
                                        cfg.lambda0, rows)
        fails += self.traced_steps(s, tracer, "train",
                                   [self.steps(self.train_csv, self.train_cfg, self.seed)])
        return fails


class SweepNarrow(Workload):
    """`dtanet sensitivity` over three rho values and two trials of narrow nets.

    Each round also writes every trial's dataset with `dtanet generate` and
    scores it with `dtanet evaluate`, using a reference model that set-up
    trains on the first trial's data (so it is the sweep's first model).
    """

    name = "sweep-narrow"

    def __init__(self, *a):
        super().__init__(*a)
        self.n, self.d, self.epochs, w = (150, 6, 3, 8) if self.quick else (600, 25, 40, 32)
        self.rhos, self.trials = (0.0, 0.3, 0.6), 2
        self.config = {"n": self.n, "d": self.d, "epochs": self.epochs, **widths(w)}
        self.ckpt = self.path("model", "checkpoint.npz")

    def seeds(self):
        return {"data": self.seed, "train": self.seed,
                "sweep_trials": [self.seed + j for j in range(self.trials)]}

    def trials_data(self):
        """(rho index, rho, trial, dataset CSV) of every sweep trial, in the sweep's order."""
        return [(k, rho, j, self.path("data", f"rho{k}-trial{j}", "dataset.csv"))
                for k, rho in enumerate(self.rhos) for j in range(self.trials)]

    def setup(self, s):
        # the reference model is trained on the first trial's data, written
        # here with the library; the rounds write every trial's CSV themselves
        write_json(self.path("config.json"), self.config)
        for k, rho in enumerate(self.rhos):
            write_json(self.path(f"rho{k}.json"), {**self.config, "rho": rho})
        first = self.path("reference.csv")
        synth = self.p.synth.SynthConfig(n=self.n, d=self.d, rho=self.rhos[0], seed=self.seed)
        self.p.data.write_csv(first, self.p.synth.generate(synth)[0])
        s.cli("train", ["train", "--config", self.path("config.json"), "--data", first,
                        "--out", self.path("model"), "--seed", self.seed])

    def sweep_argv(self, out, seed, rhos, trials):
        argv = ["sensitivity", "--config", self.path("config.json"), "--out", out,
                "--seed", seed, "--trials", trials]
        for rho in rhos:
            argv += ["--rho", repr(rho)]
        return argv

    def round(self, s):
        trials = self.trials_data()
        for k, _, j, csv_path in trials:
            s.cli("generate", ["generate", "--config", self.path(f"rho{k}.json"),
                               "--out", csv_path.parent, "--seed", self.seed + j])
        s.cli("sensitivity", self.sweep_argv(self.path("sweep"), self.seed,
                                             self.rhos, self.trials))
        for _, _, j, csv_path in trials:
            s.cli("evaluate", ["evaluate", "--data", csv_path, "--checkpoint", self.ckpt,
                               "--out", csv_path.parent, "--seed", self.seed + j])

    def trial_steps(self):
        """Steps of each sweep model, in the order the sweep trains them."""
        return [self.steps(csv_path, self.config, self.seed + j)
                for _, _, j, csv_path in self.trials_data()]

    def e2e(self, s, round_walls):
        steps, trials = sum(self.trial_steps()), len(self.rhos) * self.trials
        sweeps = s.ok("sensitivity")
        return {"train_steps_per_s": median([steps / r["wall"] for r in sweeps]),
                "trials_per_min": median([60.0 * trials / r["wall"] for r in sweeps]),
                **self.row_rates(s)}

    def check(self, s, tracer):
        fails = []
        for _, rho, j, csv_path in self.trials_data():
            synth = self.p.synth.SynthConfig(n=self.n, d=self.d, rho=rho, seed=self.seed + j)
            fails += self.check_dataset(csv_path, synth)
            fails += self.check_scores(csv_path, self.ckpt, csv_path.parent / "metrics.csv",
                                       self.seed + j)
        fails += checks.trace_rows(checks.read_trace(self.path("model", "trace.csv")),
                                   self.epochs, self.train_config(self.config).sinkhorn_tol)
        synth = self.p.synth.SynthConfig()
        samples = self.path("sweep", "sensitivity_samples.csv")
        fails += checks.sensitivity(samples, self.path("sweep", "sensitivity.csv"),
                                    self.rhos, self.trials, synth.b, synth.c)
        # the reference model is the sweep's first trial, trained through `dtanet train`
        first = self.table(self.trials_data()[0][3])
        model, _ = self.p.model.load_checkpoint(self.ckpt)
        est = self.p.model.estimate_effects(model, first["X"], first["t"])
        fails += checks.same_trial(checks.sample_row(samples, self.rhos[0], 0),
                                   {"ame": repr(est.ame), "ade": repr(est.ade)})
        # rerun one trial alone, chosen by the seed, with the seed that trial used
        j, rho = self.seed % self.trials, self.rhos[self.seed % len(self.rhos)]
        rec = Session(self.p).cli("sensitivity", self.sweep_argv(
            self.path("rerun"), self.seed + j, (rho,), 1))
        if rec["rc"] != 0:
            fails.append(f"rerun of trial {j} at rho={rho} exited {rec['rc']}")
        else:
            fails += checks.same_trial(
                checks.sample_row(samples, rho, j),
                checks.sample_row(self.path("rerun", "sensitivity_samples.csv"), rho, 0))
        fails += self.traced_steps(s, tracer, "sensitivity", self.trial_steps())
        return fails


WORKLOADS = {w.name: w for w in (TrainDefault, SweepNarrow)}


def blas_record(np):
    """BLAS name, version and the thread count it runs with now."""
    import ctypes
    import glob
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def git_revision():
    """HEAD of the checkout's own git repository, or None when it is not one."""
    # the ceiling keeps git from reporting a repository that merely contains ROOT
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_ticks():
    """Machine-wide CPU ticks from /proc/stat: (steal, total)."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def run_record(program, workload, args, steal_share):
    import numpy as np
    import scipy
    return {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "workload_seeds": workload.seeds(),
        "nproc": os.cpu_count(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "dtanet": program.version, "blas": blas_record(np),
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_revision": git_revision(), "source_sha256": source_digest(),
        # share of the machine's CPU time the hypervisor took while the run measured
        "cpu_steal_share": steal_share,
    }


def metric_units():
    """({end-to-end name: unit}, {per-layer name: unit}) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_workload(program, args):
    work = BENCH / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("data", "model", "eval"):
        (work / sub).mkdir(parents=True)
    workload = WORKLOADS[args.workload](program, work, args.seed, args.quick)
    tracer = tracing.Tracer() if args.trace else None
    session = Session(program, tracer)

    def phase(fn):
        """Run one set-up or round, traced or not; return its wall time."""
        t0 = time.perf_counter()
        if session.traced:
            with tracer.installed(program):
                fn(session)
        else:
            fn(session)
        return time.perf_counter() - t0

    ticks = cpu_ticks()
    session.phase = "setup"
    setup_walls = [phase(workload.setup) for _ in range(1 if args.trace else SETUP_REPEATS)]

    session.phase = "round"
    rounds = {"traced": [], "untraced": []}
    start = time.perf_counter()
    n = 0

    def more_rounds():
        """At least one round (one of each kind when traced); then another one
        while it would end nearer to --seconds than stopping now does."""
        if n < (2 if args.trace else 1):
            return True
        typical = median(rounds["traced"] + rounds["untraced"])
        return time.perf_counter() - start + typical / 2 < args.seconds

    while more_rounds():
        session.traced = bool(args.trace) and n % 2 == 1
        rounds["traced" if session.traced else "untraced"].append(phase(workload.round))
        n += 1
    session.traced = False
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    steal, total = (b - a for a, b in zip(ticks, cpu_ticks()))

    failed = sum(1 for r in session.records if r["rc"] != 0)
    fails = ([f"{failed} operations failed; outputs not checked"] if failed
             else workload.check(session, tracer))
    if args.trace:
        fails += checks.plan_marginals(tracer.plans)
        for C, gamma, reg in tracer.lp_samples:
            fails += checks.lp_bounds(C, gamma, reg, tracer.plans[0]["tol"])
        values = tracing.layer_metrics(tracer.spans, tracer.plans, rounds)
        units = metric_units()[1]
    else:
        values = {"setup_s": median(setup_walls), "peak_rss_mb": peak_rss_mb,
                  **workload.e2e(session, rounds["untraced"])}
        units = metric_units()[0]
    for name in units:
        if not math.isfinite(values[name]):
            fails.append(f"metric {name} is {values[name]}")

    record = run_record(program, workload, args, steal / total if total else None)
    result = {"correct": not fails, "attempted": len(session.records), "failed": failed,
              "metrics": {k: {"value": values[k] if math.isfinite(values[k]) else None,
                              "unit": units[k]} for k in units}}
    detail = {"record": record, "result": result, "failures": fails,
              "setup_walls": setup_walls, "round_walls": rounds,
              "commands": [{k: r[k] for k in ("kind", "phase", "traced", "rc", "wall")}
                           for r in session.records]}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    label = f"{'quick-' if args.quick else ''}{args.workload}-seed{args.seed}-trace{args.trace}"
    write_json(results / f"{label}.json", detail)
    shutil.rmtree(work, ignore_errors=True)
    for msg in fails:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    return record, result


def quick(program):
    """Every workload at toy size, untraced and traced, plus the check self-tests."""
    import selftest
    problems = [f"self-test: {msg}" for msg in selftest.run(program)]
    for name in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=name, seed=3, seconds=1, trace=trace, quick=True)
            _, result = run_workload(program, args)
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} trace={trace}: {result}")
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for msg in problems:
        print(f"perfbench quick: {msg}", file=sys.stderr)
    print("quick mode:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="toy-size run of every workload plus the checks' self-tests")
    args = parser.parse_args()
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    program = import_program()
    if args.quick:
        return quick(program)
    record, result = run_workload(program, args)
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
