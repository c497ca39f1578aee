"""Losses, total objective, gradient assembly, and the training loop."""

import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import asdict, astuple, fields, replace

import numpy as np
import pytest

from dtanet import nn, ot, training
from dtanet.model import init_model, load_checkpoint, save_checkpoint
from dtanet.synth import SynthConfig, generate
from dtanet.data import DataError, write_rows
from dtanet.training import (TraceRecord, TrainConfig, compute_gradients,
                             loss_orthogonal, loss_outcome, train, train_step)
from test_model import at_blas_threads

TINY = dict(rep_dim=2, med_dim=2, phi_hidden=(2,), psi_hidden=(2,), head_hidden=(2,))


def tiny_cfg(**kw):
    base = dict(TINY, seed=0, lambda1=0.15, lambda2=0.4, epochs=3,
                batch_size_t=4, batch_size_c=4)
    base.update(kw)
    return TrainConfig(**base)


def tiny_model(d=3, seed=0):
    rng = np.random.default_rng(seed)
    return init_model(d, 2, 2, (2,), (2,), (2,), rng)


class TestLossOutcome:
    def test_perfect_predictions(self):
        assert loss_outcome([1.0, 2.0], [1.0, 2.0], [3.0], [3.0], 0.5) == 0.0

    def test_single_errors(self):
        # lambda0 * 4 / 1 + (1 - lambda0) * 0 = 2
        assert loss_outcome([2.0], [0.0], [1.0], [1.0], 0.5) == pytest.approx(2.0)

    def test_balanced_unit_errors(self):
        assert loss_outcome([1.0, 1.0], [0.0, 0.0], [1.0, 1.0], [2.0, 2.0],
                            0.5) == pytest.approx(1.0)

    def test_empty_arm_contributes_zero(self):
        assert loss_outcome([], [], [2.0], [0.0], 0.5) == pytest.approx(2.0)


class TestOutcomeLengths:
    """An arm's outcomes must number its rows; nothing broadcasts."""

    @pytest.mark.parametrize("arm, n_y", [("treated", 1), ("treated", 2), ("control", 5)])
    def test_compute_gradients_names_the_arm_and_both_lengths(self, arm, n_y):
        rng = np.random.default_rng(11)
        X_t, X_c = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        y = {"treated": np.zeros(4), "control": np.zeros(3)}
        y[arm] = np.ones(n_y)
        rows = {"treated": 4, "control": 3}[arm]
        message = f"^{arm} arm: {n_y} outcomes for {rows} rows$"
        with pytest.raises(ValueError, match=message):
            compute_gradients(tiny_model(), X_t, y["treated"], X_c, y["control"],
                              tiny_cfg())

    @pytest.mark.parametrize("arm, n_y", [("treated", 1), ("control", 3)])
    def test_loss_outcome_names_the_arm_and_both_lengths(self, arm, n_y):
        args = {"treated": ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]),
                "control": ([1.0, 2.0], [1.0, 2.0])}
        pred = args[arm][0]
        args[arm] = (pred, [1.0] * n_y)
        message = f"^{arm} arm: {n_y} outcomes for {len(pred)} rows$"
        with pytest.raises(ValueError, match=message):
            loss_outcome(*args["treated"], *args["control"], 0.5)

    def test_checked_before_the_worker_starts(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError, match="treated arm: 1 outcomes for 4 rows"):
            compute_gradients(tiny_model(), rng.standard_normal((4, 3)), [1.0],
                              rng.standard_normal((3, 3)), np.zeros(3), tiny_cfg(),
                              worker=RefusingWorker())


class TestLossOrthogonal:
    def test_orthogonal_columns(self):
        M = np.array([[1.0], [-1.0]])
        Z = np.array([[1.0], [1.0]])
        assert loss_orthogonal(M, Z, np.empty((0, 1)), np.empty((0, 1))) == 0.0

    def test_aligned_columns(self):
        M = Z = np.array([[1.0], [1.0]])
        assert loss_orthogonal(M, Z, np.empty((0, 1)), np.empty((0, 1))) == pytest.approx(4.0)

    def test_matches_naive_nested_loops(self):
        rng = np.random.default_rng(0)
        M_t, Z_t = rng.standard_normal((5, 3)), rng.standard_normal((5, 4))
        M_c, Z_c = rng.standard_normal((4, 3)), rng.standard_normal((4, 4))
        total = 0.0
        for M, Z in ((M_t, Z_t), (M_c, Z_c)):
            for a in range(M.shape[1]):
                for b in range(Z.shape[1]):
                    acc = sum(M[i, a] * Z[i, b] for i in range(M.shape[0]))
                    total += acc ** 2
        assert loss_orthogonal(M_t, Z_t, M_c, Z_c) == pytest.approx(total)

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            loss_orthogonal(np.ones((3, 2)), np.ones((4, 2)),
                            np.empty((0, 2)), np.empty((0, 2)))


class TestTotalLoss:
    """The objective's parts as compute_gradients reports them."""

    def test_reduces_to_outcome_loss(self):
        m = tiny_model()
        cfg = tiny_cfg(lambda1=0.0, lambda2=0.0)
        rng = np.random.default_rng(1)
        Xt, Xc = rng.standard_normal((3, 3)), rng.standard_normal((2, 3))
        yt, yc = rng.standard_normal(3), rng.standard_normal(2)
        _, parts = compute_gradients(m, Xt, yt, Xc, yc, cfg)
        assert parts["total"] == pytest.approx(parts["l_y"])

    def test_parts_sum_to_total(self):
        m = tiny_model(seed=4)
        cfg = tiny_cfg()
        rng = np.random.default_rng(2)
        Xt, Xc = rng.standard_normal((4, 3)), rng.standard_normal((3, 3))
        yt, yc = rng.standard_normal(4), rng.standard_normal(3)
        _, parts = compute_gradients(m, Xt, yt, Xc, yc, cfg)
        assert parts["total"] == pytest.approx(parts["l_y"] + cfg.lambda1 * parts["l_sim"]
                                               + cfg.lambda2 * parts["l_balan"])

    def test_identical_clouds_balancing_near_floor(self):
        m = tiny_model(seed=5)
        cfg = tiny_cfg(lambda3=50.0)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((3, 3))
        _, parts = compute_gradients(m, X, np.zeros(3), X, np.zeros(3), cfg)
        # a zero-cost coupling exists, only the entropic smoothing remains
        assert parts["l_balan"] < 0.1


class TestGradientAssembly:
    def test_whole_objective_matches_finite_differences(self):
        """Frozen-plan objective gradient check on a 6-sample instance."""
        m = tiny_model(seed=7)
        cfg = tiny_cfg()
        rng = np.random.default_rng(4)
        Xt, Xc = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
        yt, yc = rng.standard_normal(3), rng.standard_normal(3)
        grads, parts = compute_gradients(m, Xt, yt, Xc, yc, cfg)
        gamma = parts["gamma"]

        def frozen_loss():
            Z_t, _ = m.phi.forward(Xt)
            Z_c, _ = m.phi.forward(Xc)
            M_t, _ = m.psi_t.forward(Xt)
            M_c, _ = m.psi_c.forward(Xc)
            pt, _ = m.head_t.forward(np.hstack([Z_t, M_t]))
            pc, _ = m.head_c.forward(np.hstack([Z_c, M_c]))
            return (loss_outcome(pt[:, 0], yt, pc[:, 0], yc, cfg.lambda0)
                    + cfg.lambda1 * loss_orthogonal(M_t, Z_t, M_c, Z_c)
                    + cfg.lambda2 * float(np.sum(ot.cost_matrix(Z_c, Z_t) * gamma)))

        eps = 1e-5
        for name, net in m.bundles().items():
            for pi, p in enumerate(net.params()):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    ix = it.multi_index
                    orig = p[ix]
                    p[ix] = orig + eps
                    hi = frozen_loss()
                    p[ix] = orig - eps
                    lo = frozen_loss()
                    p[ix] = orig
                    fd = (hi - lo) / (2 * eps)
                    assert net.split(grads[name])[pi][ix] == pytest.approx(
                        fd, rel=1e-4, abs=1e-8), \
                        f"{name} param {pi} at {ix}"

    def test_treated_only_batch_routes_no_control_gradients(self):
        m = tiny_model(seed=8)
        cfg = tiny_cfg()
        rng = np.random.default_rng(5)
        grads, _ = compute_gradients(m, rng.standard_normal((4, 3)),
                                     rng.standard_normal(4), np.empty((0, 3)), [], cfg)
        assert grads["psi_c"] is None
        assert grads["head_c"] is None
        assert grads["phi"] is not None and grads["psi_t"] is not None

    def test_overflowed_representations_raise_floating_point_error(self):
        m = tiny_model(seed=9)
        for w in m.phi.weights:
            w *= 1e200
        rng = np.random.default_rng(6)
        with np.errstate(all="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite transport cost"):
            compute_gradients(m, rng.standard_normal((4, 3)), rng.standard_normal(4),
                              rng.standard_normal((4, 3)), rng.standard_normal(4),
                              tiny_cfg())


def two_pass_gradients(model, X_t, y_t, X_c, y_c, cfg):
    """Reference assembly: phi forward and backward once per arm, grads summed."""
    r_z = model.rep_dim
    arms = {}
    for arm, X, y, psi, head, w in (("t", X_t, y_t, model.psi_t, model.head_t, cfg.lambda0),
                                    ("c", X_c, y_c, model.psi_c, model.head_c,
                                     1.0 - cfg.lambda0)):
        if len(X) == 0:
            continue
        Z, tape_phi = model.phi.forward(X)
        M, tape_psi = psi.forward(X)
        pred, tape_head = head.forward(np.hstack([Z, M]))
        A = M.T @ Z
        arms[arm] = dict(Z=Z, M=M, A=A, tape_phi=tape_phi, tape_psi=tape_psi,
                         tape_head=tape_head, psi=psi, head=head,
                         d_pred=(2.0 * w / len(X)) * (pred[:, 0] - y), d_bal=0.0)
    if len(arms) == 2:
        Z_t, Z_c = arms["t"]["Z"], arms["c"]["Z"]
        plan = ot.sinkhorn(ot.cost_matrix(Z_c, Z_t), cfg.lambda3,
                           max_iter=cfg.sinkhorn_max_iter, tol=cfg.sinkhorn_tol)
        arms["c"]["d_bal"], arms["t"]["d_bal"] = ot.balancing_gradient(plan, Z_c, Z_t)
    grads, phi = {}, None
    for arm, s in arms.items():
        g_head, d_H = s["head"].backward(s["tape_head"], s["d_pred"][:, None])
        dZ = d_H[:, :r_z] + cfg.lambda1 * 2.0 * (s["M"] @ s["A"]) + cfg.lambda2 * s["d_bal"]
        dM = d_H[:, r_z:] + cfg.lambda1 * 2.0 * (s["Z"] @ s["A"].T)
        g_phi, _ = model.phi.backward(s["tape_phi"], dZ)
        grads["head_" + arm] = g_head
        grads["psi_" + arm], _ = s["psi"].backward(s["tape_psi"], dM)
        phi = g_phi if phi is None else phi + g_phi
    grads["phi"] = phi
    return grads


class TestStackedPhiPass:
    """compute_gradients runs phi once on both arms; the per-arm assembly agrees."""

    @pytest.mark.parametrize("n_t, n_c", [(16, 9), (7, 0), (0, 5)])
    def test_matches_two_pass_reference(self, n_t, n_c):
        rng = np.random.default_rng(n_t * 10 + n_c)
        model = init_model(6, 8, 5, (12, 12), (10,), (9, 9), rng)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        X_t, X_c = rng.standard_normal((n_t, 6)), rng.standard_normal((n_c, 6))
        y_t, y_c = rng.standard_normal(n_t), rng.standard_normal(n_c)
        got, _ = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
        want = two_pass_gradients(model, X_t, y_t, X_c, y_c, cfg)
        for name, value in got.items():
            if name not in want:
                assert value is None, name
                continue
            np.testing.assert_allclose(value, want[name], rtol=0, atol=1e-12, err_msg=name)

    def test_five_forward_and_backward_calls(self, monkeypatch):
        calls = {"forward": 0, "backward": 0}
        for kind in calls:
            original = getattr(nn.DenseNet, kind)

            def counted(self, *a, _kind=kind, _original=original, **kw):
                calls[_kind] += 1
                return _original(self, *a, **kw)
            monkeypatch.setattr(nn.DenseNet, kind, counted)
        rng = np.random.default_rng(0)
        compute_gradients(tiny_model(), rng.standard_normal((4, 3)), np.zeros(4),
                          rng.standard_normal((3, 3)), np.zeros(3), tiny_cfg())
        assert calls == {"forward": 5, "backward": 5}

    @pytest.mark.parametrize("n_t, n_c", [(16, 9), (7, 0), (0, 5)])
    def test_skipped_input_gradients_leave_parameter_gradients_bit_identical(
            self, n_t, n_c, monkeypatch):
        rng = np.random.default_rng(100 + n_t * 10 + n_c)
        model = init_model(6, 8, 5, (12, 12), (10,), (9, 9), rng)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        X_t, X_c = rng.standard_normal((n_t, 6)), rng.standard_normal((n_c, 6))
        y_t, y_c = rng.standard_normal(n_t), rng.standard_normal(n_c)
        got, _ = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
        original, skipped = nn.DenseNet.backward, []

        def every_input_grad(self, tape, upstream, input_grad=True, out=None):
            skipped.append(not input_grad)
            return original(self, tape, upstream, out=out)
        monkeypatch.setattr(nn.DenseNet, "backward", every_input_grad)
        want, _ = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
        # phi and each present arm's mediator net skip it; the heads do not
        assert skipped.count(True) == 1 + (n_t > 0) + (n_c > 0)
        assert skipped.count(False) == (n_t > 0) + (n_c > 0)
        assert got.keys() == want.keys()
        for name, value in got.items():
            if want[name] is None:
                assert value is None, name
                continue
            np.testing.assert_array_equal(value.view(np.uint64), want[name].view(np.uint64),
                                          err_msg=name)


def bundle_bits(grads):
    return {name: None if g is None else g.tobytes() for name, g in grads.items()}


class TestGradientBuffers:
    """Gradients written into the Adam states' buffers keep the allocating bits."""

    @pytest.mark.parametrize("n_t, n_c", [(16, 9), (7, 0), (0, 5)])
    def test_buffers_give_the_allocating_bits(self, n_t, n_c):
        rng = np.random.default_rng(200 + n_t * 10 + n_c)
        model = init_model(6, 8, 5, (12, 12), (10,), (9, 9), rng)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        X_t, X_c = rng.standard_normal((n_t, 6)), rng.standard_normal((n_c, 6))
        y_t, y_c = rng.standard_normal(n_t), rng.standard_normal(n_c)
        want, want_parts = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
        states = adam_states(model)
        for state in states.values():
            state.grad.fill(np.nan)
        got, parts = compute_gradients(model, X_t, y_t, X_c, y_c, cfg, states=states)
        assert bundle_bits(got) == bundle_bits(want)
        assert parts["total"] == want_parts["total"]
        for name, g in got.items():
            if g is None:
                assert np.isnan(states[name].grad).all(), name
                assert states[name].step == 0, name
            else:
                assert g is states[name].grad, name
                assert states[name].step == 1, name

    def test_train_step_fills_the_adam_states_buffers(self):
        ds, _ = generate(SynthConfig(n=80, d=5, seed=3))
        model = init_model(ds.d, 4, 3, (5,), (4,), (3,), np.random.default_rng(3))
        states = {name: nn.adam_init(net.theta) for name, net in model.bundles().items()}
        buffers = {name: state.grad for name, state in states.items()}
        cfg = tiny_cfg()
        bt, bc = np.nonzero(ds.t == 1)[0][:4], np.nonzero(ds.t == 0)[0][:4]
        for _ in range(3):
            want, _ = compute_gradients(model, ds.X[bt], ds.y[bt], ds.X[bc], ds.y[bc], cfg)
            train_step(model, states, ds.X[bt], ds.y[bt], ds.X[bc], ds.y[bc], cfg)
            assert {name: state.grad for name, state in states.items()} == buffers
            assert bundle_bits(buffers) == bundle_bits(want)


class TestNoTransportAtZeroLambda2:
    """lambda2 = 0 builds no cost matrix and solves no Sinkhorn plan."""

    @staticmethod
    def refuse(*args, **kwargs):
        raise AssertionError("the transport term ran at lambda2 = 0")

    @pytest.mark.parametrize("n_t, n_c", [(16, 9), (7, 0)])
    def test_compute_gradients_skips_the_transport_term(self, monkeypatch, n_t, n_c):
        rng = np.random.default_rng(300 + n_t)
        model = init_model(6, 8, 5, (12, 12), (10,), (9, 9), rng)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.0, lambda3=0.5)
        X_t, X_c = rng.standard_normal((n_t, 6)), rng.standard_normal((n_c, 6))
        y_t, y_c = rng.standard_normal(n_t), rng.standard_normal(n_c)
        want = two_pass_gradients(model, X_t, y_t, X_c, y_c, cfg)
        for name in ("cost_matrix", "sinkhorn", "transport_cost", "balancing_gradient"):
            monkeypatch.setattr(ot, name, self.refuse)
        got, parts = compute_gradients(model, X_t, y_t, X_c, y_c, cfg)
        for name, value in got.items():
            if name in want:
                np.testing.assert_allclose(value, want[name], rtol=0, atol=1e-12,
                                           err_msg=name)
        assert parts["l_balan"] == 0.0 and parts["gamma"] is None
        assert math.isnan(parts["sinkhorn_residual"])
        assert parts["total"] == parts["l_y"] + cfg.lambda1 * parts["l_sim"]

    def test_trace_reads_zero_transport(self, monkeypatch):
        monkeypatch.setattr(ot, "sinkhorn", self.refuse)
        ds, _ = generate(SynthConfig(n=80, d=5, seed=4))
        _, trace = train(ds, tiny_cfg(lambda2=0.0, epochs=3))
        assert [(r.l_balan, r.sinkhorn_residual) for r in trace] == [(0.0, 0.0)] * 3


class TestTrain:
    def make_data(self, n=80, seed=0):
        ds, _ = generate(SynthConfig(n=n, d=5, seed=seed))
        return ds

    def test_zero_epochs_returns_init(self):
        ds = self.make_data()
        cfg = tiny_cfg(epochs=0)
        model, trace = train(ds, cfg)
        rng = np.random.default_rng(cfg.seed)
        fresh = init_model(ds.d, cfg.rep_dim, cfg.med_dim, cfg.phi_hidden,
                           cfg.psi_hidden, cfg.head_hidden, rng)
        assert trace == []
        for name, net in model.bundles().items():
            for a, b in zip(net.params(), fresh.bundles()[name].params()):
                np.testing.assert_array_equal(a, b)

    def test_single_arm_training_set_is_a_data_error(self):
        ds = self.make_data()
        control = np.nonzero(ds.t == 0)[0]
        with pytest.raises(DataError, match="one treated and one control"):
            train(ds, tiny_cfg(), control)

    def test_trace_csv_columns_are_the_record_fields(self, tmp_path):
        rec = TraceRecord(epoch=2, l_y=0.5, l_sim=0.25, l_balan=1e-3, total=0.1,
                          sinkhorn_residual=3e-7, val_l_y=math.nan, seconds=0.75)
        path = tmp_path / "trace.csv"
        write_rows(path, [f.name for f in fields(TraceRecord)], [astuple(rec)])
        assert path.read_text().splitlines() == [
            "epoch,l_y,l_sim,l_balan,total,sinkhorn_residual,val_l_y,seconds",
            "2,0.5,0.25,0.001,0.1,3e-07,nan,0.75"]

    def test_loss_improves(self):
        ds = self.make_data(n=200, seed=42)
        cfg = tiny_cfg(epochs=60, batch_size_t=16, batch_size_c=16, seed=42)
        _, trace = train(ds, cfg)
        assert trace[-1].total < trace[0].total

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("field, value, plain", [
        ("seed", np.int64(3), 3),
        ("alpha", np.float32(1e-3), float(np.float32(1e-3))),
        ("phi_hidden", (np.int64(2),), (2,)),
    ])
    def test_numpy_scalars_are_stored_as_python_numbers(self, tmp_path, field,
                                                        value, plain):
        cfg = tiny_cfg(epochs=1, **{field: value})
        assert getattr(cfg, field) == plain
        assert json.dumps(asdict(cfg)) == json.dumps(asdict(tiny_cfg(epochs=1,
                                                                     **{field: plain})))
        model, _ = train(self.make_data(n=40), cfg)
        save_checkpoint(tmp_path / "ckpt.npz", model, asdict(cfg))
        _, stored = load_checkpoint(tmp_path / "ckpt.npz")
        assert TrainConfig(**stored) == cfg

    def test_deterministic_replay(self):
        ds = self.make_data(n=60, seed=3)
        cfg = tiny_cfg(epochs=4, seed=9)
        m1, t1 = train(ds, cfg)
        m2, t2 = train(ds, cfg)
        for name, net in m1.bundles().items():
            for a, b in zip(net.params(), m2.bundles()[name].params()):
                np.testing.assert_array_equal(a, b)
        assert [r.total for r in t1] == [r.total for r in t2]

    def test_treated_only_step_freezes_control_bundles(self):
        ds = self.make_data()
        cfg = tiny_cfg()
        rng = np.random.default_rng(0)
        model = init_model(ds.d, 2, 2, (2,), (2,), (2,), rng)
        states = {name: nn.adam_init(net.theta) for name, net in model.bundles().items()}
        before_c = [p.copy() for p in model.psi_c.params() + model.head_c.params()]
        treated = np.nonzero(ds.t == 1)[0][:4]
        train_step(model, states, ds.X[treated], ds.y[treated],
                   np.empty((0, ds.d)), [], cfg)
        after_c = model.psi_c.params() + model.head_c.params()
        for a, b in zip(before_c, after_c):
            np.testing.assert_array_equal(a, b)

    def test_best_validation_checkpoint_is_returned(self):
        ds = self.make_data(n=120, seed=1)
        cfg = tiny_cfg(epochs=25, seed=1)
        from dtanet.data import split
        parts = split(ds.n, 1)
        model, trace = train(ds, cfg, parts.train, parts.validation)
        vals = [r.val_l_y for r in trace]
        assert all(math.isfinite(v) for v in vals)
        from dtanet.training import _validation_outcome_loss
        got = _validation_outcome_loss(model, ds, parts.validation, cfg.lambda0)
        assert got == pytest.approx(min(vals))

    def test_validation_pass_runs_each_arm_through_its_own_nets(self, monkeypatch):
        from dtanet.training import _validation_outcome_loss

        ds = self.make_data(n=120, seed=5)
        model = tiny_model(ds.d, seed=5)
        idx = np.arange(10, 100)
        # reference: every representation on each arm's rows, as before
        t, y = ds.t[idx], ds.y[idx]
        preds = []
        for arm, head, psi in ((1, model.head_t, model.psi_t), (0, model.head_c, model.psi_c)):
            X = ds.X[idx][t == arm]
            reps = [net.forward(X, tape=False)[0] for net in (model.phi, psi)]
            preds.append(head.forward(np.hstack(reps))[0][:, 0])
        want = loss_outcome(preds[0], y[t == 1], preds[1], y[t == 0], 0.3)
        calls = []
        original = nn.DenseNet.forward
        monkeypatch.setattr(
            nn.DenseNet, "forward",
            lambda self, x, **kw: calls.append(self) or original(self, x, **kw))
        assert _validation_outcome_loss(model, ds, idx, 0.3) == want
        assert calls == [model.phi, model.psi_t, model.head_t,
                         model.phi, model.psi_c, model.head_c]

    def test_orthogonality_shrinks_normalized_overlap(self):
        ds = self.make_data(n=200, seed=42)
        cfg = tiny_cfg(epochs=60, batch_size_t=16, batch_size_c=16, seed=42,
                       lambda1=0.2)

        def overlap(model):
            Z, M_t, M_c = (net.forward(ds.X, tape=False)[0]
                           for net in (model.phi, model.psi_t, model.psi_c))
            num = np.linalg.norm(M_t.T @ Z) + np.linalg.norm(M_c.T @ Z)
            den = ((np.linalg.norm(M_t) + np.linalg.norm(M_c)) * np.linalg.norm(Z))
            return num / den

        init_m, _ = train(ds, replace(cfg, epochs=0))
        final_m, _ = train(ds, cfg)
        assert overlap(final_m) < overlap(init_m)


class RefusingWorker:
    """An executor that fails any test that hands it a job."""

    def submit(self, *args, **kwargs):
        raise AssertionError("the worker was used")


def worker():
    """This process's worker thread."""
    return training._executor(os.getpid())


def force_two_threads(monkeypatch):
    """Open train's gate to the worker thread, whatever the model, BLAS and CPUs."""
    monkeypatch.setattr(training, "_TWO_THREAD_WORK", 0)
    monkeypatch.setattr(training, "_blas_threads", lambda: 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def step_model():
    return init_model(6, 8, 5, (12, 12), (10,), (9, 9), np.random.default_rng(400))


def adam_states(model):
    return {name: nn.adam_init(net.theta) for name, net in model.bundles().items()}


def step_bits(model, states, parts):
    """Everything a step leaves behind, as bytes."""
    return ({name: net.theta.tobytes() for name, net in model.bundles().items()},
            {name: (s.m.tobytes(), s.v.tobytes(), s.step) for name, s in states.items()},
            {k: v.tobytes() if isinstance(v, np.ndarray) else v for k, v in parts.items()})


def gate_at_default_width():
    """training._step_worker's verdict on a default-width model and batch."""
    cfg = TrainConfig()
    model = init_model(100, cfg.rep_dim, cfg.med_dim, cfg.phi_hidden, cfg.psi_hidden,
                       cfg.head_hidden, np.random.default_rng(0))
    return training._step_worker(model, cfg.batch_size_t) is not None


class TestTwoThreadStep:
    """The treated arm on the worker thread gives the serial path's bits."""

    @pytest.mark.parametrize("overrides", [{}, {"lambda2": 0.0}, {"lambda1": 0.0}])
    def test_steps_match_the_serial_path_bit_for_bit(self, overrides):
        """Also with the interpreter switching threads every microsecond."""
        cfg = tiny_cfg(**{"lambda1": 0.3, "lambda2": 0.7, "lambda3": 0.5, **overrides})
        rng = np.random.default_rng(401)
        serial, threaded = step_model(), step_model()
        s_states, t_states = adam_states(serial), adam_states(threaded)
        interval = sys.getswitchinterval()
        try:
            for step in range(8):
                sys.setswitchinterval(1e-6 if step % 2 else interval)
                X_t, X_c = rng.standard_normal((16, 6)), rng.standard_normal((9, 6))
                y_t, y_c = rng.standard_normal(16), rng.standard_normal(9)
                want = train_step(serial, s_states, X_t, y_t, X_c, y_c, cfg)
                got = train_step(threaded, t_states, X_t, y_t, X_c, y_c, cfg,
                                 worker())
                assert (step_bits(threaded, t_states, got)
                        == step_bits(serial, s_states, want))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("overrides", [{}, {"lambda2": 0.0}, {"lambda1": 0.0}])
    def test_training_matches_the_serial_path_bit_for_bit(self, monkeypatch, overrides):
        ds, _ = generate(SynthConfig(n=80, d=5, seed=6))
        cfg = tiny_cfg(epochs=4, **overrides)
        idx = np.arange(ds.n)
        want_model, want_trace = train(ds, cfg, idx[:60], idx[60:])
        force_two_threads(monkeypatch)
        model, trace = train(ds, cfg, idx[:60], idx[60:])
        assert [replace(r, seconds=0.0) for r in trace] == \
            [replace(r, seconds=0.0) for r in want_trace]
        for name, net in model.bundles().items():
            assert net.theta.tobytes() == want_model.bundles()[name].theta.tobytes(), name

    @pytest.mark.parametrize("n_t, n_c", [(7, 0), (0, 5)])
    def test_one_arm_batches_stay_on_the_calling_thread(self, n_t, n_c):
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        rng = np.random.default_rng(402)
        X_t, X_c = rng.standard_normal((n_t, 6)), rng.standard_normal((n_c, 6))
        y_t, y_c = rng.standard_normal(n_t), rng.standard_normal(n_c)
        serial, inline = step_model(), step_model()
        s_states, i_states = adam_states(serial), adam_states(inline)
        want = train_step(serial, s_states, X_t, y_t, X_c, y_c, cfg)
        got = train_step(inline, i_states, X_t, y_t, X_c, y_c, cfg, RefusingWorker())
        assert step_bits(inline, i_states, got) == step_bits(serial, s_states, want)

    @pytest.mark.parametrize("owner, name", [(training, "_arm_pass"), (nn, "adam_step")])
    def test_worker_failure_reaches_the_caller_and_the_next_step_runs(
            self, monkeypatch, owner, name):
        """A failure in either job the worker runs: the treated arm or the updates."""
        original, failed = getattr(owner, name), []

        def failing_on_the_worker(*args, **kwargs):
            if threading.current_thread().name.startswith("dtanet-arm") and not failed:
                failed.append(name)
                raise FloatingPointError("injected")
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, failing_on_the_worker)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        rng = np.random.default_rng(403)
        model = step_model()
        states = adam_states(model)
        X_t, X_c = rng.standard_normal((16, 6)), rng.standard_normal((9, 6))
        y_t, y_c = rng.standard_normal(16), rng.standard_normal(9)
        with pytest.raises(FloatingPointError, match="injected"):
            train_step(model, states, X_t, y_t, X_c, y_c, cfg, worker())
        assert failed == [name]
        parts = train_step(model, states, X_t, y_t, X_c, y_c, cfg, worker())
        assert math.isfinite(parts["total"])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        force_two_threads(monkeypatch)
        ds, _ = generate(SynthConfig(n=80, d=5, seed=8))
        cfg = tiny_cfg(epochs=1)
        train(ds, cfg)
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                train(ds, cfg)
                code = 0
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while not (status := os.waitpid(pid, os.WNOHANG))[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's training did not finish in 30 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status[1]) == 0

    def test_diverging_training_warns_on_neither_thread(self, monkeypatch):
        force_two_threads(monkeypatch)
        ds, _ = generate(SynthConfig(n=80, d=5, seed=7))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FloatingPointError):
                train(ds, tiny_cfg(alpha=1e200, epochs=3))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestInlineSchedule:
    """Without a worker, each job runs in the calling thread before its block."""

    def test_serial_step_frees_each_arms_tapes_before_the_other_arm_runs(self):
        cfg = TrainConfig()
        model = init_model(100, cfg.rep_dim, cfg.med_dim, cfg.phi_hidden, cfg.psi_hidden,
                           cfg.head_hidden, np.random.default_rng(0))
        states = adam_states(model)
        rng = np.random.default_rng(404)
        X_t, X_c = rng.standard_normal((64, 100)), rng.standard_normal((64, 100))
        y_t, y_c = rng.standard_normal(64), rng.standard_normal(64)
        peaks = []
        for X_c_rows, y_c_rows in ((X_c, y_c), (X_c[:0], y_c[:0])):
            tracemalloc.start()
            try:
                train_step(model, states, X_t, y_t, X_c_rows, y_c_rows, cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # about 3.3 MB against 2.6; with both arms' tapes alive at once, up to 5.0
        assert peaks[0] < 1.4 * peaks[1]

    @pytest.mark.parametrize("owner, name", [(training, "_arm_pass"), (nn, "adam_step")])
    def test_failure_reaches_the_caller_and_the_next_step_runs(self, monkeypatch, owner,
                                                               name):
        """A failure in either inline job leaves every parameter and Adam state
        as it was."""
        original, failed = getattr(owner, name), []

        def failing_once(*args, **kwargs):
            if not failed:
                failed.append(name)
                raise FloatingPointError("injected")
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, failing_once)
        cfg = tiny_cfg(lambda1=0.3, lambda2=0.7, lambda3=0.5)
        rng = np.random.default_rng(405)
        model = step_model()
        states = adam_states(model)
        X_t, X_c = rng.standard_normal((16, 6)), rng.standard_normal((9, 6))
        y_t, y_c = rng.standard_normal(16), rng.standard_normal(9)
        before = step_bits(model, states, {})
        with pytest.raises(FloatingPointError, match="injected"):
            train_step(model, states, X_t, y_t, X_c, y_c, cfg)
        assert failed == [name]
        assert step_bits(model, states, {}) == before
        parts = train_step(model, states, X_t, y_t, X_c, y_c, cfg)
        assert math.isfinite(parts["total"])


class TestTwoThreadGate:
    """train takes the worker only where it can pay off."""

    def test_default_width_at_one_blas_thread_uses_the_worker(self):
        if len(os.sched_getaffinity(0)) < 2 or training._blas_threads() is None:
            pytest.skip("needs two CPUs and NumPy's own OpenBLAS")
        assert at_blas_threads(1, "test_training", "gate_at_default_width") == "True"

    def test_two_blas_threads_stay_serial(self):
        assert at_blas_threads(2, "test_training", "gate_at_default_width") == "False"

    def test_one_cpu_stays_serial(self, monkeypatch):
        monkeypatch.setattr(training, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not gate_at_default_width()

    def test_narrow_nets_stay_serial(self, monkeypatch):
        monkeypatch.setattr(training, "_blas_threads", lambda: 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        model = init_model(25, 32, 32, (32, 32), (32, 32), (32, 32),
                           np.random.default_rng(0))
        assert training._step_worker(model, 64) is None
        assert gate_at_default_width()
