"""Model architecture, effect estimators, checkpoint round-trip."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import zipfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from dtanet import cli, metrics, nn
from dtanet import model as dtanet_model
from dtanet.data import ObservationalDataset
from dtanet.model import (DtanetModel, _row_blocks, decompose_effects,
                          estimate_effects, estimate_factual_effects, init_model,
                          load_checkpoint, predict_outcomes, save_checkpoint)
from dtanet.synth import SynthConfig, generate


def small_model(seed=0, d=4):
    rng = np.random.default_rng(seed)
    return init_model(d, rep_dim=3, med_dim=2, phi_hidden=(5,), psi_hidden=(4,),
                      head_hidden=(3,), rng=rng)


def constant_head(value, in_dim):
    return nn.DenseNet([np.zeros((1, in_dim))], [np.array([float(value)])])


def represent(model, X):
    """(Z, M_t, M_c): each representation net's tape-free output on X."""
    return tuple(net.forward(X, tape=False)[0]
                 for net in (model.phi, model.psi_t, model.psi_c))


class TestRepresent:
    def test_empty_input(self):
        m = small_model()
        Z, M_t, M_c = represent(m, np.empty((0, 4)))
        assert Z.shape == (0, 3) and M_t.shape == (0, 2) and M_c.shape == (0, 2)
        assert predict_outcomes(m, np.empty((0, 4)), "treated", "control").shape == (0,)

    def test_identity_nets_pass_positive_input(self):
        eye = nn.DenseNet([np.eye(2)], [np.zeros(2)])
        head = constant_head(0.0, 4)
        m = DtanetModel(phi=eye, psi_t=eye.copy(), psi_c=eye.copy(),
                        head_t=head, head_c=head.copy())
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        Z, M_t, M_c = represent(m, X)
        for mat in (Z, M_t, M_c):
            np.testing.assert_array_equal(mat, X)

    def test_rows_equal_per_sample_forward(self):
        m = small_model(3)
        X = np.random.default_rng(1).standard_normal((5, 4))
        Z, M_t, M_c = represent(m, X)
        for i in range(5):
            np.testing.assert_allclose(Z[i], m.phi.forward(X[i:i + 1])[0][0])
            np.testing.assert_allclose(M_t[i], m.psi_t.forward(X[i:i + 1])[0][0])
            np.testing.assert_allclose(M_c[i], m.psi_c.forward(X[i:i + 1])[0][0])

    def test_dimension_mismatch(self):
        m, X, t = small_model(), np.ones((2, 7)), np.array([1, 0])
        with pytest.raises(ValueError, match="covariate width"):
            predict_outcomes(m, X, "treated", "treated")
        for estimate in (estimate_effects, estimate_factual_effects):
            with pytest.raises(ValueError, match="covariate width"):
                estimate(m, X, t)


def predict_one(model, x, head, mediator_arm) -> float:
    return float(predict_outcomes(model, np.reshape(x, (1, -1)), head, mediator_arm)[0])


class TestPredictOutcome:
    """predict_outcomes on one individual."""

    def test_constant_heads(self):
        m = small_model()
        m.head_t = constant_head(1.0, 5)
        m.head_c = constant_head(0.0, 5)
        x = np.ones(4)
        assert predict_one(m, x, "treated", "treated") == 1.0
        assert predict_one(m, x, "control", "control") == 0.0

    def test_identical_psi_makes_arms_symmetric(self):
        m = small_model(5)
        m.psi_c = m.psi_t.copy()
        x = np.random.default_rng(2).standard_normal(4)
        a = predict_one(m, x, "treated", "treated")
        b = predict_one(m, x, "treated", "control")
        assert a == pytest.approx(b, abs=1e-15)

    def test_matches_manual_composition(self):
        m = small_model(9)
        x = np.random.default_rng(3).standard_normal(4)
        z, _ = m.phi.forward(x.reshape(1, -1))
        mt, _ = m.psi_t.forward(x.reshape(1, -1))
        manual, _ = m.head_t.forward(np.hstack([z, mt]))
        assert predict_one(m, x, "treated", "treated") == pytest.approx(manual[0, 0])

    def test_invalid_arm_rejected(self):
        with pytest.raises(ValueError):
            predict_one(small_model(), np.ones(4), "treated", "placebo")


class TestEstimateEffects:
    def test_constant_heads(self):
        m = small_model()
        m.head_t = constant_head(1.0, 5)
        m.head_c = constant_head(0.0, 5)
        X = np.random.default_rng(0).standard_normal((6, 4))
        t = np.array([1, 0, 1, 0, 1, 1])
        est = estimate_effects(m, X, t)
        np.testing.assert_allclose(est.ite, 1.0)
        assert est.ate == pytest.approx(1.0)
        assert est.att == pytest.approx(1.0)

    def test_identical_psi_kills_mte(self):
        m = small_model(7)
        m.psi_c = m.psi_t.copy()
        X = np.random.default_rng(4).standard_normal((5, 4))
        t = np.array([1, 1, 0, 0, 1])
        est = estimate_effects(m, X, t)
        np.testing.assert_allclose(est.mte_at_t, 0.0, atol=1e-14)
        assert est.ame == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(est.ite, est.dte_at_t, atol=1e-14)

    def test_decomposition_identity_exact(self):
        m = small_model(11)
        X = np.random.default_rng(5).standard_normal((20, 4))
        t = (np.random.default_rng(6).uniform(size=20) > 0.5).astype(int)
        est = estimate_effects(m, X, t)
        resid = est.ite - est.mte_at_t - est.dte_at_other
        assert np.max(np.abs(resid)) <= 4 * np.spacing(np.max(np.abs(est.ite)))

    def test_aggregates_are_means(self):
        m = small_model(13)
        X = np.random.default_rng(7).standard_normal((8, 4))
        t = np.array([1, 0, 0, 1, 0, 1, 1, 0])
        est = estimate_effects(m, X, t)
        assert est.ate == pytest.approx(np.mean(est.ite))
        assert est.att == pytest.approx(np.mean(est.ite[t == 1]))
        assert est.ame == pytest.approx(np.mean(est.mte_at_t))
        assert est.ade == pytest.approx(np.mean(est.dte_at_t))

    def test_head_independence(self):
        m = small_model(17)
        X = np.random.default_rng(8).standard_normal((4, 4))
        before = predict_outcomes(m, X, "treated", "treated")
        m.head_c.weights[0] += 100.0
        after = predict_outcomes(m, X, "treated", "treated")
        np.testing.assert_array_equal(before, after)

    def test_predictions_equal_predict_outcomes_bit_for_bit(self):
        m = small_model(19)
        X = np.random.default_rng(10).standard_normal((9, 4))
        t = np.array([1, 0, 0, 1, 1, 0, 1, 0, 1])
        est = estimate_effects(m, X, t)
        y = {(h, a): predict_outcomes(m, X, h, a)
             for h in ("treated", "control") for a in ("treated", "control")}
        np.testing.assert_array_equal(est.pred_t, y["treated", "treated"])
        np.testing.assert_array_equal(est.pred_c, y["control", "control"])
        np.testing.assert_array_equal(est.ite, y["treated", "treated"] - y["control", "control"])
        treated = t == 1
        np.testing.assert_array_equal(est.mte_at_t, np.where(
            treated, y["treated", "treated"] - y["treated", "control"],
            y["control", "treated"] - y["control", "control"]))

    def test_seven_forward_passes(self, monkeypatch):
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(self) or original(self, x, **kw))
        m = small_model(21)
        estimate_effects(m, np.ones((3, 4)), np.array([1, 0, 1]))
        assert len(calls) == 7
        assert [calls.count(net) for net in m.bundles().values()] == [1, 1, 1, 2, 2]

    def test_factual_path_runs_five_forward_passes(self, monkeypatch):
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(self) or original(self, x, **kw))
        m = small_model(21)
        estimate_factual_effects(m, np.ones((3, 4)), np.array([1, 0, 1]))
        assert calls == [m.phi, m.psi_t, m.head_t, m.psi_c, m.head_c]

    def test_factual_path_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="lengths disagree"):
            estimate_factual_effects(small_model(), np.ones((3, 4)), np.array([1, 0]))

    @pytest.mark.parametrize("arm", ["treated", "control"])
    def test_predict_outcomes_runs_three_forwards(self, monkeypatch, arm):
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(self) or original(self, x, **kw))
        m = small_model(23)
        predict_outcomes(m, np.ones((3, 4)), "control", arm)
        psi = m.psi_t if arm == "treated" else m.psi_c
        assert calls == [m.phi, psi, m.head_c]

    def test_rebuilt_from_own_fields(self):
        est = estimate_effects(small_model(), np.ones((2, 4)), np.array([1, 0]))
        again = type(est)(**est.__dict__)
        np.testing.assert_array_equal(again.pred_t, est.pred_t)


def unblocked_estimate_effects(model, X, t):
    """estimate_effects as it was before row blocking: every net on all rows."""
    Z, M_t, M_c = represent(model, X)
    H_t, H_c = np.hstack([Z, M_t]), np.hstack([Z, M_c])
    yt_mt, yt_mc = (model.head_t.forward(H)[0][:, 0] for H in (H_t, H_c))
    yc_mt, yc_mc = (model.head_c.forward(H)[0][:, 0] for H in (H_t, H_c))
    return decompose_effects(yt_mt, yt_mc, yc_mt, yc_mc, t)


def taped_two_arm_estimate_effects(model, X, t):
    """estimate_effects as it was before tape-free, one-arm-at-a-time
    inference: per row block every net keeps its tape, and both arms' [Z, M]
    matrices are alive together."""
    psis = {"treated": model.psi_t, "control": model.psi_c}
    heads = {"treated": model.head_t, "control": model.head_c}
    pairs = [(h, m) for h in heads for m in psis]
    out = np.empty((len(pairs), X.shape[0]))
    for rows in _row_blocks(X.shape[0]):
        Z, _ = model.phi.forward(X[rows])
        H = {arm: np.hstack([Z, psi.forward(X[rows])[0]]) for arm, psi in psis.items()}
        for k, (head, arm) in enumerate(pairs):
            out[k, rows] = heads[head].forward(H[arm])[0][:, 0]
    return decompose_effects(*out, t)


def square_model(width, d, seed):
    """A model with every representation and hidden width equal to width."""
    hidden = (width, width)
    return init_model(d, width, width, hidden, hidden, hidden,
                      np.random.default_rng(seed))


def estimate_bytes(est):
    return b"".join(np.asarray(value).tobytes() for value in est.__dict__.values())


def block_rule_mismatches():
    """(width, d, n) cases where estimate_effects' bits differ from the
    unblocked reference's. Run at one BLAS thread."""
    mismatches = []
    for width, d in itertools.product((1, 2, 3, 4, 32, 200), (6, 25, 32, 100)):
        model = square_model(width, d, seed=1000 * width + d)
        rng = np.random.default_rng(d)
        X, t = rng.standard_normal((9999, d)), rng.integers(0, 2, 9999)
        for n in (0, 1, 639, 640, 1279, 1280, 1281, 4000, 4001, 9999):
            if (estimate_bytes(estimate_effects(model, X[:n], t[:n]))
                    != estimate_bytes(unblocked_estimate_effects(model, X[:n], t[:n]))):
                mismatches.append((width, d, n))
    return mismatches


def split_layer_diffs():
    """Entries where a 2-wide layer on 100 inputs, run on 1280 rows in blocks
    of 576 and of 640 rows (the remainder merged into the last block), differs
    from one call on all rows. Run at one BLAS thread."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((1280, 100)), rng.standard_normal((2, 100))
    whole = x @ w.T
    diffs = []
    for block in (576, 640):
        split = np.vstack([x[:block] @ w.T, x[block:] @ w.T])
        diffs.append(int(np.count_nonzero(split != whole)))
    return diffs


def at_blas_threads(threads, module, function):
    """module.function() of the tests, run in a Python whose BLAS has this
    many threads; what it printed."""
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}; print({module}.{function}())"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@contextmanager
def split_gate(open_):
    """_predict's two-thread split forced open whatever the block, BLAS and
    CPUs, or closed by a one-CPU affinity."""
    with pytest.MonkeyPatch.context() as mp:
        if open_:
            mp.setattr(dtanet_model, "_TWO_THREAD_WORK", 0)
            mp.setattr(nn, "_blas_threads", lambda: 1)
            mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        else:
            mp.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


def worker_forwards(call):
    """Row counts of the DenseNet.forward calls that call() ran on the worker thread."""
    rows, original = [], nn.DenseNet.forward

    def counting(self, x, **kw):
        if threading.current_thread().name.startswith(nn._WORKER_PREFIX):
            rows.append(len(x))
        return original(self, x, **kw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nn.DenseNet, "forward", counting)
        call()
    return rows


def inference_bytes(model, X, t):
    """estimate_effects', estimate_factual_effects' and predict_outcomes' bits."""
    return (estimate_bytes(estimate_effects(model, X, t)),
            estimate_bytes(estimate_factual_effects(model, X, t)),
            predict_outcomes(model, X, "control", "treated").tobytes())


def split_rule_mismatches():
    """(width, d, n) cases where inference with every row block split between
    two threads differs from the gate-closed bits. Run at one BLAS thread."""
    mismatches = []
    for width, d in itertools.product((32, 200), (25, 100)):
        model = square_model(width, d, seed=1000 * width + d)
        rng = np.random.default_rng(d)
        X, t = rng.standard_normal((9999, d)), rng.integers(0, 2, 9999)
        for n in (639, 640, 1279, 1281, 4001, 9999):
            with split_gate(False):
                want = inference_bytes(model, X[:n], t[:n])
            with split_gate(True):
                if inference_bytes(model, X[:n], t[:n]) != want:
                    mismatches.append((width, d, n))
    return mismatches


def midpoint_layer_diffs():
    """Entries where a head's 1-wide output layer on 400 inputs, run on 639
    rows split at row 319 and at row 320, differs from one call on all rows.
    Run at one BLAS thread."""
    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((639, 400)), rng.standard_normal((1, 400))
    whole = x @ w.T
    return [int(np.count_nonzero(np.vstack([x[:mid] @ w.T, x[mid:] @ w.T]) != whole))
            for mid in (319, 320)]


def default_width_block_on_the_worker():
    """Forwards that estimate_factual_effects on one 640-row block of a
    default-width model runs on the worker thread, at the gate's own verdict."""
    rng = np.random.default_rng(5)
    X, t = rng.standard_normal((640, 100)), rng.integers(0, 2, 640)
    return len(worker_forwards(
        lambda: estimate_factual_effects(square_model(200, 100, 5), X, t)))


class TestRowBlocks:
    def test_estimates_keep_the_unblocked_bits_at_one_blas_thread(self):
        assert at_blas_threads(1, "test_model", "block_rule_mismatches") == "[]"

    def test_a_576_row_split_changes_bits_and_a_640_row_split_does_not(self):
        """The small-matrix GEMM path makes the block size matter."""
        split_576, split_640 = json.loads(
            at_blas_threads(1, "test_model", "split_layer_diffs"))
        assert split_576 > 0 and split_640 == 0

    @pytest.mark.parametrize("n", [1500, 4001])
    def test_predictions_equal_predict_outcomes_bit_for_bit(self, n):
        m = square_model(32, 25, n)
        rng = np.random.default_rng(n)
        X, t = rng.standard_normal((n, 25)), rng.integers(0, 2, n)
        est = estimate_effects(m, X, t)
        y = {(h, a): predict_outcomes(m, X, h, a)
             for h in ("treated", "control") for a in ("treated", "control")}
        np.testing.assert_array_equal(est.pred_t, y["treated", "treated"])
        np.testing.assert_array_equal(est.pred_c, y["control", "control"])
        treated = t == 1
        np.testing.assert_array_equal(est.mte_at_t, np.where(
            treated, y["treated", "treated"] - y["treated", "control"],
            y["control", "treated"] - y["control", "control"]))
        np.testing.assert_array_equal(est.dte_at_other, np.where(
            treated, y["treated", "control"] - y["control", "control"],
            y["treated", "treated"] - y["control", "treated"]))

    @pytest.mark.parametrize("n, forwards", [(1279, 7), (1280, 14)])
    def test_seven_forward_passes_per_block(self, monkeypatch, n, forwards):
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(len(x)) or original(self, x, **kw))
        estimate_effects(small_model(), np.ones((n, 4)), np.arange(n) % 2)
        assert len(calls) == forwards
        assert sum(calls) == 7 * n

    @pytest.mark.parametrize("n, forwards", [(1279, 5), (1280, 10)])
    def test_evaluate_runs_five_forward_passes_per_block(self, monkeypatch, n, forwards):
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(len(x)) or original(self, x, **kw))
        rng = np.random.default_rng(n)
        dataset = ObservationalDataset(np.ones((n, 4)), np.arange(n) % 2,
                                       rng.standard_normal(n))
        cli.evaluate_model(small_model(), dataset, np.arange(n))
        assert len(calls) == forwards
        assert sum(calls) == 5 * n

    def test_peak_memory_below_half_of_the_unblocked_one(self):
        self.peak_memory_below_half_of_the_unblocked_one()

    def test_peak_memory_below_half_of_the_unblocked_one_with_blocks_split(self):
        with split_gate(True):
            self.peak_memory_below_half_of_the_unblocked_one()

    @staticmethod
    def peak_memory_below_half_of_the_unblocked_one():
        m = square_model(200, 100, 0)
        rng = np.random.default_rng(1)
        X, t = rng.standard_normal((4000, 100)), rng.integers(0, 2, 4000)
        peaks = []
        for estimate in (estimate_effects, unblocked_estimate_effects):
            tracemalloc.start()
            try:
                estimate(m, X, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2

    def test_peak_memory_below_a_third_of_the_taped_two_arm_one(self):
        self.peak_memory_below_a_third_of_the_taped_two_arm_one()

    def test_peak_memory_below_a_third_of_the_taped_two_arm_one_with_blocks_split(self):
        with split_gate(True):
            self.peak_memory_below_a_third_of_the_taped_two_arm_one()

    @staticmethod
    def peak_memory_below_a_third_of_the_taped_two_arm_one():
        m = square_model(200, 100, 0)
        rng = np.random.default_rng(1)
        X, t = rng.standard_normal((4000, 100)), rng.integers(0, 2, 4000)
        peaks, results = [], []
        for estimate in (estimate_effects, taped_two_arm_estimate_effects):
            tracemalloc.start()
            try:
                est = estimate(m, X, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            results.append(estimate_bytes(est))
        # about 5.3 MB against 19.7; tapes kept, one arm at a time, gives 9.2
        assert peaks[0] <= peaks[1] / 3
        assert results[0] == results[1]


class TestSplitBlocks:
    """A row block split between the caller and the worker thread keeps the
    bits of the gate-closed path; the gate opens only where a split pays."""

    def test_split_blocks_keep_the_gate_closed_bits_at_one_blas_thread(self):
        assert at_blas_threads(1, "test_model", "split_rule_mismatches") == "[]"

    def test_an_odd_midpoint_changes_bits_and_an_8_aligned_one_does_not(self):
        """OpenBLAS takes the 1-wide layer's rows in groups of 4."""
        odd, aligned = json.loads(at_blas_threads(1, "test_model", "midpoint_layer_diffs"))
        assert odd > 0 and aligned == 0

    def test_each_half_runs_every_forward_once(self):
        m = square_model(32, 25, 6)
        rng = np.random.default_rng(6)
        X, t = rng.standard_normal((1281, 25)), rng.integers(0, 2, 1281)
        calls = []
        original = nn.DenseNet.forward

        def counting(self, x, **kw):
            calls.append((threading.current_thread().name.startswith(nn._WORKER_PREFIX),
                          len(x)))
            return original(self, x, **kw)
        with split_gate(True), pytest.MonkeyPatch.context() as mp:
            mp.setattr(nn.DenseNet, "forward", counting)
            estimate_factual_effects(m, X, t)
        # blocks of 640 and 641 rows, each split at row 320
        assert sorted(calls) == sorted(5 * [(False, 320), (True, 320), (False, 321),
                                            (True, 320)])

    def test_worker_failure_reaches_the_caller_and_the_next_call_runs(self, monkeypatch):
        m = square_model(32, 25, 7)
        rng = np.random.default_rng(7)
        X, t = rng.standard_normal((1280, 25)), rng.integers(0, 2, 1280)
        with split_gate(False):
            want = estimate_bytes(estimate_factual_effects(m, X, t))
        original, failed = nn.DenseNet.forward, []

        def failing_on_the_worker(self, x, **kw):
            if threading.current_thread().name.startswith(nn._WORKER_PREFIX) and not failed:
                failed.append(self)
                raise FloatingPointError("injected")
            return original(self, x, **kw)
        monkeypatch.setattr(nn.DenseNet, "forward", failing_on_the_worker)
        with split_gate(True):
            with pytest.raises(FloatingPointError, match="injected"):
                estimate_factual_effects(m, X, t)
            assert failed == [m.phi]
            assert estimate_bytes(estimate_factual_effects(m, X, t)) == want

    def test_the_worker_thread_runs_its_own_calls_whole(self):
        """Inference called on the worker thread does not hand work to itself,
        which would wait forever on a one-thread executor."""
        m = square_model(32, 25, 10)
        rng = np.random.default_rng(10)
        X, t = rng.standard_normal((1280, 25)), rng.integers(0, 2, 1280)
        with split_gate(False):
            want = estimate_bytes(estimate_factual_effects(m, X, t))
        with split_gate(True):
            job = nn._executor(os.getpid()).submit(estimate_factual_effects, m, X, t)
            assert estimate_bytes(job.result(timeout=30)) == want

    def test_default_width_at_one_blas_thread_uses_the_worker(self):
        if len(os.sched_getaffinity(0)) < 2 or nn._blas_threads() is None:
            pytest.skip("needs two CPUs and NumPy's own OpenBLAS")
        assert at_blas_threads(1, "test_model", "default_width_block_on_the_worker") == "5"

    def test_two_blas_threads_stay_serial(self):
        assert at_blas_threads(2, "test_model", "default_width_block_on_the_worker") == "0"

    def test_one_cpu_stays_serial(self, monkeypatch):
        monkeypatch.setattr(nn, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert default_width_block_on_the_worker() == 0

    def test_narrow_nets_and_small_calls_stay_serial(self, monkeypatch):
        """sweep-narrow's shape (width 32, d 25: folds of 96 and 120 rows, a
        trial's 600 rows), and a 40-row call at the default width."""
        monkeypatch.setattr(nn, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rng = np.random.default_rng(8)
        narrow, wide = square_model(32, 25, 8), square_model(200, 100, 8)
        X, t = rng.standard_normal((600, 25)), rng.integers(0, 2, 600)
        X_wide = rng.standard_normal((40, 100))
        assert not worker_forwards(lambda: (
            estimate_factual_effects(narrow, X[:96], t[:96]),
            estimate_factual_effects(narrow, X[:120], t[:120]),
            estimate_effects(narrow, X, t),
            predict_outcomes(narrow, X, "treated", "treated"),
            estimate_effects(wide, X_wide, t[:40])))
        assert default_width_block_on_the_worker() == 5

    def test_a_2_wide_mediator_stays_serial(self, monkeypatch):
        """A half of 320 rows would put its 2-wide layer on OpenBLAS's
        small-matrix path, which the whole block does not take."""
        monkeypatch.setattr(nn, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        wide = (200, 200)
        m = init_model(100, 200, 2, wide, wide, wide, np.random.default_rng(9))
        rng = np.random.default_rng(9)
        X, t = rng.standard_normal((640, 100)), rng.integers(0, 2, 640)
        assert not worker_forwards(lambda: estimate_factual_effects(m, X, t))


def assert_same_report(model, dataset, idx):
    """evaluate_model's report on rows idx has, field by field, the repr of
    effect_report's on estimate_effects' four-pairing estimate. Returns it."""
    got = cli.evaluate_model(model, dataset, idx)
    t = dataset.t[idx]
    true_ite = dataset.true_ite()[idx] if dataset.has_ground_truth else None
    want = metrics.effect_report(estimate_effects(model, dataset.X[idx], t), t, true_ite)
    for f in fields(metrics.MetricsReport):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name
    return got


class TestFactualPath:
    """estimate_factual_effects, and evaluate_model through it, against
    estimate_effects' seven forwards per row block."""

    @pytest.mark.parametrize("n, d, width", [
        (1279, 25, 32), (1280, 25, 32), (4001, 25, 32),
        (8000, 100, 200)], ids=["1279", "1280", "4001", "8000-d100-width200"])
    def test_fields_and_report_equal_the_four_pairing_ones(self, n, d, width):
        """The last case is a default-width model on 8000 rows, 13 row blocks."""
        dataset, _ = generate(SynthConfig(n=n, d=d, seed=n))
        model = square_model(width, d, n)
        full = estimate_effects(model, dataset.X, dataset.t)
        factual = estimate_factual_effects(model, dataset.X, dataset.t)
        for f in fields(factual):
            np.testing.assert_array_equal(getattr(factual, f.name), getattr(full, f.name),
                                          err_msg=f.name)
        report = assert_same_report(model, dataset, np.arange(n))
        assert None not in (report.sqrt_pehe, report.eps_ate, report.eps_att,
                            report.policy_risk)
        assert report.eps_mte is None and report.eps_dte is None

    def test_fold_without_treated_rows(self):
        dataset, _ = generate(SynthConfig(n=1500, d=25, seed=3))
        idx = np.flatnonzero(dataset.t == 0)
        report = assert_same_report(square_model(32, 25, 3), dataset, idx)
        assert report.eps_att is None and report.eps_ate is not None

    def test_dataset_without_ground_truth(self):
        generated, _ = generate(SynthConfig(n=1500, d=25, seed=4))
        dataset = ObservationalDataset(generated.X, generated.t, generated.y)
        report = assert_same_report(square_model(32, 25, 4), dataset, np.arange(1500))
        assert report.sqrt_pehe is None and report.policy_risk is not None


class TestModelInvariants:
    def test_psi_dims_must_match(self):
        rng = np.random.default_rng(0)
        m = small_model()
        with pytest.raises(ValueError):
            DtanetModel(phi=m.phi, psi_t=m.psi_t,
                        psi_c=nn.init_dense([4, 3], rng),
                        head_t=m.head_t, head_c=m.head_c)

    @pytest.mark.parametrize("net", ["phi", "psi_t", "psi_c"])
    def test_representation_nets_must_share_input_width(self, net):
        nets = small_model().bundles()
        nets[net] = nn.init_dense([5, nets[net].out_dim], np.random.default_rng(0))
        with pytest.raises(ValueError, match="input widths"):
            DtanetModel(**nets)

    def test_head_width_must_match(self):
        rng = np.random.default_rng(0)
        m = small_model()
        with pytest.raises(ValueError):
            DtanetModel(phi=m.phi, psi_t=m.psi_t, psi_c=m.psi_c,
                        head_t=nn.init_dense([9, 1], rng), head_c=m.head_c)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = small_model(23)
        cfg = {"seed": 23, "epochs": 5}
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m, cfg)
        loaded, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        for name, net in m.bundles().items():
            other = loaded.bundles()[name]
            for a, b in zip(net.params(), other.params()):
                np.testing.assert_array_equal(a, b)

    def test_stored_version_one_file_loads_and_scores_the_same_bytes(self, tmp_path):
        """data/checkpoint_v1.npz was written by `dtanet train` (test_cli's tiny
        config, seed 0, 3 epochs) while each net still kept separate weight and
        bias arrays; the digest is of its effect estimates at that time."""
        path = Path(__file__).parent / "data" / "checkpoint_v1.npz"
        model, cfg = load_checkpoint(path)
        assert cfg["seed"] == 0 and cfg["epochs"] == 3
        X = np.random.default_rng(0).standard_normal((25, 6))
        est = estimate_effects(model, X, np.arange(25) % 2)
        scores = (est.ite, est.mte_at_t, est.dte_at_t, est.dte_at_other,
                  est.pred_t, est.pred_c)
        assert hashlib.sha256(b"".join(a.tobytes() for a in scores)).hexdigest() == \
            "2a7ea48401af637affc6ac7242423ad6abe689400822f97e964e0e3b3fc57279"
        save_checkpoint(tmp_path / "again.npz", model, cfg)
        with zipfile.ZipFile(path) as old, zipfile.ZipFile(tmp_path / "again.npz") as new:
            assert old.namelist() == new.namelist()
            for member in old.namelist():
                assert old.read(member) == new.read(member), member

    def test_predictions_survive_round_trip(self, tmp_path):
        m = small_model(29)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m)
        loaded, _ = load_checkpoint(path)
        X = np.random.default_rng(9).standard_normal((5, 4))
        np.testing.assert_array_equal(predict_outcomes(m, X, "treated", "treated"),
                                      predict_outcomes(loaded, X, "treated", "treated"))
