"""Model architecture, effect estimators, checkpoint round-trip."""

import numpy as np
import pytest

from dtanet import nn
from dtanet.model import (DtanetModel, estimate_effects, init_model,
                          load_checkpoint, predict_outcome, predict_outcomes,
                          represent, save_checkpoint)


def small_model(seed=0, d=4):
    rng = np.random.default_rng(seed)
    return init_model(d, rep_dim=3, med_dim=2, phi_hidden=(5,), psi_hidden=(4,),
                      head_hidden=(3,), rng=rng)


def constant_head(value, in_dim):
    return nn.DenseNet([np.zeros((1, in_dim))], [np.array([float(value)])])


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
        with pytest.raises(ValueError):
            represent(small_model(), np.ones((2, 7)))


class TestPredictOutcome:
    def test_constant_heads(self):
        m = small_model()
        m.head_t = constant_head(1.0, 5)
        m.head_c = constant_head(0.0, 5)
        x = np.ones(4)
        assert predict_outcome(m, x, "treated", "treated") == 1.0
        assert predict_outcome(m, x, "control", "control") == 0.0

    def test_identical_psi_makes_arms_symmetric(self):
        m = small_model(5)
        m.psi_c = m.psi_t.copy()
        x = np.random.default_rng(2).standard_normal(4)
        a = predict_outcome(m, x, "treated", "treated")
        b = predict_outcome(m, x, "treated", "control")
        assert a == pytest.approx(b, abs=1e-15)

    def test_matches_manual_composition(self):
        m = small_model(9)
        x = np.random.default_rng(3).standard_normal(4)
        z, _ = m.phi.forward(x.reshape(1, -1))
        mt, _ = m.psi_t.forward(x.reshape(1, -1))
        manual, _ = m.head_t.forward(np.hstack([z, mt]))
        assert predict_outcome(m, x, "treated", "treated") == pytest.approx(manual[0, 0])

    def test_invalid_arm_rejected(self):
        with pytest.raises(ValueError):
            predict_outcome(small_model(), np.ones(4), "treated", "placebo")


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
        monkeypatch.setattr(nn.DenseNet, "forward",
                            lambda self, x: calls.append(self) or original(self, x))
        m = small_model(21)
        estimate_effects(m, np.ones((3, 4)), np.array([1, 0, 1]))
        assert len(calls) == 7
        assert [calls.count(net) for net in m.bundles().values()] == [1, 1, 1, 2, 2]

    def test_rebuilt_from_own_fields(self):
        est = estimate_effects(small_model(), np.ones((2, 4)), np.array([1, 0]))
        again = type(est)(**est.__dict__)
        np.testing.assert_array_equal(again.pred_t, est.pred_t)


class TestModelInvariants:
    def test_psi_dims_must_match(self):
        rng = np.random.default_rng(0)
        m = small_model()
        with pytest.raises(ValueError):
            DtanetModel(phi=m.phi, psi_t=m.psi_t,
                        psi_c=nn.init_dense([4, 3], rng),
                        head_t=m.head_t, head_c=m.head_c)

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

    def test_predictions_survive_round_trip(self, tmp_path):
        m = small_model(29)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, m)
        loaded, _ = load_checkpoint(path)
        X = np.random.default_rng(9).standard_normal((5, 4))
        np.testing.assert_array_equal(predict_outcomes(m, X, "treated", "treated"),
                                      predict_outcomes(loaded, X, "treated", "treated"))
