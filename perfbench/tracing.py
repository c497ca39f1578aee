"""Spans around the program's public functions, recorded from outside the program.

The tracer replaces a function by a wrapper under the very name its caller
looks up, and puts the original back when it is removed. `training` reaches
`nn.adam_step` and the `ot` functions through module attributes, so those are
patched on `nn` and `ot`; `cli` binds `train`, `generate`, `load_csv`,
`write_csv`, `estimate_effects`, `load_checkpoint` and `save_checkpoint` at
import, so those are patched on `cli`; `DenseNet.forward` and `backward` are
patched on the class. Spans are kept in memory and turned into the per-layer
metrics when the run ends.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import numpy as np

import checks

_PAGE = os.sysconf("SC_PAGE_SIZE")
RSS_POLL_S = 0.002   # how often _RssSampler reads the RSS during a call
LP_SAMPLES = 3       # trainings whose first Sinkhorn plan is kept for the LP bound check


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Span:
    __slots__ = ("name", "parent", "start", "end", "hook_s", "info")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = start
        self.hook_s = 0.0   # tracer bookkeeping that ran inside this span
        self.info = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.hook_s

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


class _RssSampler:
    """Highest RSS seen while a call runs, polled from a helper thread."""

    def __init__(self):
        self.peak = rss_bytes()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self):
        while not self._stop.wait(RSS_POLL_S):
            self.peak = max(self.peak, rss_bytes())

    def __enter__(self):
        self.before = self.peak
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_bytes())


class Tracer:
    """Records nested spans; wrappers installed by `installed` feed it."""

    def __init__(self):
        self.spans = []
        self.plans = []          # one dict per Sinkhorn call
        self.lp_samples = []     # (C, gamma, reg) kept for the LP bound check
        self._last_train = None
        self._stack = []

    def _open(self, name):
        span = Span(name, self._stack[-1] if self._stack else None, time.perf_counter())
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _hook(self, fn, span, args, kwargs, result):
        t0 = time.perf_counter()
        fn(self, span, args, kwargs, result)
        spent = time.perf_counter() - t0
        for open_span in self._stack:
            open_span.hook_s += spent

    def wrap(self, name, fn, hook, sample_rss):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                if sample_rss:
                    with _RssSampler() as rss:
                        result = fn(*args, **kwargs)
                    span.info["rss_growth"] = rss.peak - rss.before
                else:
                    result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                tracer._hook(hook, span, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, program):
        """Patch the program's modules for the duration of the block."""
        cli, nn, ot, training = program.cli, program.nn, program.ot, program.training
        targets = [
            (nn.DenseNet, "forward", "nn.forward", None, False),
            (nn.DenseNet, "backward", "nn.backward", None, False),
            (nn, "adam_step", "nn.adam_step", None, False),
            (ot, "cost_matrix", "ot.cost_matrix", None, False),
            (ot, "sinkhorn", "ot.sinkhorn", _sinkhorn_hook, False),
            (ot, "transport_cost", "ot.transport_cost", None, False),
            (ot, "balancing_gradient", "ot.balancing_gradient", None, False),
            (training, "train_step", "training.train_step", None, False),
            (training, "compute_gradients", "training.compute_gradients", None, False),
            (training, "_validation_outcome_loss", "training.validation", None, False),
            (training, "sample_arm_batch", "data.sample_arm_batch", None, False),
            (cli, "train", "training.train", None, False),
            (cli, "generate", "synth.generate", _rows_of_result, False),
            (cli, "write_csv", "data.write_csv", _rows_of_dataset_arg, False),
            (cli, "load_csv", "data.load_csv", _rows_of_result, True),
            (cli, "estimate_effects", "model.estimate_effects", _rows_of_x_arg, False),
            (cli, "load_checkpoint", "model.load_checkpoint", None, False),
            (cli, "save_checkpoint", "model.save_checkpoint", None, False),
            (cli, "evaluate_model", "cli.evaluate_model", None, False),
        ]
        originals = []
        try:
            for owner, attr, name, hook, sample_rss in targets:
                original = owner.__dict__[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, hook, sample_rss))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)


def _rows_of_result(tracer, span, args, kwargs, result):
    dataset = result[0] if isinstance(result, tuple) else result
    span.info["rows"] = dataset.n


def _rows_of_dataset_arg(tracer, span, args, kwargs, result):
    span.info["rows"] = args[1].n


def _rows_of_x_arg(tracer, span, args, kwargs, result):
    span.info["rows"] = len(args[1])


def _sinkhorn_hook(tracer, span, args, kwargs, result):
    """Keep each plan's diagnostics and the marginals measured here."""
    C, reg = args[0], args[1]
    gamma = result.gamma
    tracer.plans.append({"iterations": result.iterations, "converged": result.converged,
                         "residual": result.residual,
                         "measured": checks.marginal_error(gamma, result.p, result.q),
                         "tol": kwargs.get("tol", 1e-6)})
    train = next((s for s in span.ancestors() if s.name == "training.train"), None)
    if train is not tracer._last_train and len(tracer.lp_samples) < LP_SAMPLES:
        tracer.lp_samples.append((np.array(C, dtype=float), gamma.copy(), float(reg)))
    tracer._last_train = train


def _under(span, name):
    return any(a.name == name for a in span.ancestors())


def _quantile(values, q):
    """Linear-interpolated quantile; 0 for no values."""
    return float(np.quantile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, plans, round_walls) -> dict:
    """Per-layer metrics from the spans of one traced run.

    round_walls maps "traced" and "untraced" to the wall times of whole rounds
    run with and without the tracer. A metric whose layer the traced rounds
    never call reads 0.
    """
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def total(name, within=None):
        return sum(s.seconds for s in named(name) if within is None or _under(s, within))

    def count(name, within=None):
        return sum(1 for s in named(name) if within is None or _under(s, within))

    steps = len(named("training.train_step"))

    def per_step(x):
        return _ratio(x, steps)
    step_ms = [s.seconds * 1e3 for s in named("training.train_step")]

    # every span traced inside compute_gradients and cli.main is an nn, ot or
    # layer call, so their self time is their time minus their children's
    children_s = {}
    for span in spans:
        if span.parent is not None:
            children_s[id(span.parent)] = children_s.get(id(span.parent), 0.0) + span.seconds

    def self_s(span):
        return span.seconds - children_s.get(id(span), 0.0)

    grad_self = sum(self_s(s) for s in named("training.compute_gradients"))

    iters = [p["iterations"] for p in plans]
    sinkhorn_s = total("ot.sinkhorn")

    def rate(name):
        return _ratio(sum(s.info["rows"] for s in named(name)),
                      sum(s.seconds for s in named(name)))

    est_rows = sum(s.info["rows"] for s in named("model.estimate_effects"))
    folds = count("cli.evaluate_model")

    command_self = [self_s(s) for s in named("cli.main")]

    rss_growth = [s.info["rss_growth"] for s in named("data.load_csv")]
    return {
        "nn.forward.ms_per_step": per_step(1e3 * total("nn.forward", "training.train_step")),
        "nn.backward.ms_per_step": per_step(1e3 * total("nn.backward", "training.train_step")),
        "nn.forward.calls_per_step": per_step(count("nn.forward", "training.train_step")),
        "nn.backward.calls_per_step": per_step(count("nn.backward", "training.train_step")),
        "nn.adam_step.ms_per_step": per_step(1e3 * total("nn.adam_step")),
        "training.train_step.ms.p50": _quantile(step_ms, 0.5),
        "training.train_step.ms.p95": _quantile(step_ms, 0.95),
        "training.compute_gradients.self_ms_per_step": per_step(1e3 * grad_self),
        "training.validation.ms_per_epoch": 1e3 * _quantile(
            [s.seconds for s in named("training.validation")], 0.5),
        "training.train.s_per_model": _quantile(
            [s.seconds for s in named("training.train")], 0.5),
        "ot.cost_matrix.ms_per_step": per_step(1e3 * total("ot.cost_matrix")),
        "ot.balancing_gradient.ms_per_step": per_step(1e3 * total("ot.balancing_gradient")),
        "ot.sinkhorn.ms_per_step": per_step(1e3 * sinkhorn_s),
        "ot.sinkhorn.us_per_iter": _ratio(1e6 * sinkhorn_s, sum(iters)),
        "ot.sinkhorn.iters_mean": _ratio(sum(iters), len(iters)),
        "ot.sinkhorn.iters_max": max(iters, default=0),
        "ot.sinkhorn.calls": len(plans),
        "ot.sinkhorn.unconverged": sum(1 for p in plans if not p["converged"]),
        "model.estimate_effects.ms_per_krow":
            _ratio(1e6 * total("model.estimate_effects"), est_rows),
        "nn.forward.calls_per_evaluate_fold": _ratio(count("nn.forward", "cli.evaluate_model"),
                                                     folds),
        "model.load_checkpoint.ms": 1e3 * _quantile(
            [s.seconds for s in named("model.load_checkpoint")], 0.5),
        "model.save_checkpoint.ms": 1e3 * _quantile(
            [s.seconds for s in named("model.save_checkpoint")], 0.5),
        "data.load_csv.rows_per_s": rate("data.load_csv"),
        "data.load_csv.rss_growth_mb": max(rss_growth, default=0) / 2 ** 20,
        "data.write_csv.rows_per_s": rate("data.write_csv"),
        "data.sample_arm_batch.us_per_step": per_step(1e6 * total("data.sample_arm_batch")),
        "synth.generate.ms": 1e3 * _quantile([s.seconds for s in named("synth.generate")], 0.5),
        "cli.self_s": _ratio(sum(command_self), len(command_self)),
        "trace.overhead_s": (_quantile(round_walls["traced"], 0.5)
                             - _quantile(round_walls["untraced"], 0.5)),
    }
