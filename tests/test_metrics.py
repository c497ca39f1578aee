"""Evaluation metrics: PEHE, population-effect errors, policy risk."""

from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dtanet.data import write_rows
from dtanet.metrics import MetricsReport, effect_report, pehe, policy_risk
from dtanet.model import EffectEstimates
from dtanet.synth import SynthConfig, generate

finite = st.floats(-1e6, 1e6, allow_nan=False)


class TestPehe:
    def test_perfect_estimate(self):
        assert pehe([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_unit_residuals(self):
        assert pehe([1.0, -1.0], [0.0, 0.0]) == pytest.approx(1.0)

    def test_is_mean_of_squares(self):
        assert pehe([3.0, 0.0], [0.0, 0.0]) == pytest.approx(4.5)

    def test_translation_covariance(self):
        rng = np.random.default_rng(0)
        est, true = rng.standard_normal(10), rng.standard_normal(10)
        assert pehe(est + 5.0, true + 5.0) == pytest.approx(pehe(est, true))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        est, true = rng.standard_normal(8), rng.standard_normal(8)
        perm = rng.permutation(8)
        assert pehe(est[perm], true[perm]) == pytest.approx(pehe(est, true))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pehe([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            pehe([], [])

    @given(st.lists(st.tuples(finite, finite), min_size=1, max_size=30))
    def test_nonnegative(self, pairs):
        est = [p[0] for p in pairs]
        true = [p[1] for p in pairs]
        assert pehe(est, true) >= 0.0


def make_estimates(ite, t, mte, dte):
    ite = np.asarray(ite, dtype=float)
    t = np.asarray(t)
    mte = np.asarray(mte, dtype=float)
    dte = np.asarray(dte, dtype=float)
    return EffectEstimates(ite=ite, mte_at_t=mte, dte_at_t=dte,
                           dte_at_other=ite - mte,
                           ate=float(np.mean(ite)),
                           att=float(np.mean(ite[t == 1])),
                           ame=float(np.mean(mte)),
                           ade=float(np.mean(dte)))


def errors(report):
    return report.eps_ate, report.eps_att, report.eps_mte, report.eps_dte


class TestEffectReport:
    def test_exact_estimate_gives_zeros(self):
        ds, truth = generate(SynthConfig(n=30, d=6, seed=0))
        true = truth.effects(ds.t)
        est = make_estimates(true.ite, ds.t, true.mte_at_t, true.dte_at_t)
        report = effect_report(est, ds.t, truth=truth)
        assert errors(report) == (0.0, 0.0, 0.0, 0.0)
        assert report.sqrt_pehe == 0.0
        assert report.policy_risk is None  # no factual predictions given

    def test_known_offset(self):
        ds, truth = generate(SynthConfig(n=30, d=6, seed=0))
        true = truth.effects(ds.t)
        est = make_estimates(true.ite - 0.5, ds.t, true.mte_at_t, true.dte_at_t)
        eps_ate, eps_att, eps_mte, eps_dte = errors(effect_report(est, ds.t, truth=truth))
        assert eps_ate == pytest.approx(0.5)
        assert eps_att == pytest.approx(0.5)
        assert eps_mte == pytest.approx(0.0)
        assert eps_dte == pytest.approx(0.0)

    def test_no_treated_rows_omits_att(self):
        ds, truth = generate(SynthConfig(n=20, d=6, seed=1))
        t = np.zeros(20, dtype=int)
        true = truth.effects(t)
        est = make_estimates(true.ite, np.r_[1, np.zeros(19, dtype=int)],
                             true.mte_at_t, true.dte_at_t)
        assert effect_report(est, t, truth=truth).eps_att is None

    def test_true_ite_only_leaves_mediated_and_direct_unset(self):
        ds, truth = generate(SynthConfig(n=30, d=6, seed=0))
        true = truth.effects(ds.t)
        est = make_estimates(true.ite - 0.5, ds.t, true.mte_at_t, true.dte_at_t)
        est.pred_t, est.pred_c = np.ones(30), np.zeros(30)
        report = effect_report(est, ds.t, true_ite=true.ite)
        assert report.sqrt_pehe == pytest.approx(0.5)
        assert report.eps_ate == pytest.approx(0.5)
        assert report.eps_att == pytest.approx(0.5)
        assert report.eps_mte is None and report.eps_dte is None
        assert report.policy_risk == pytest.approx(0.0)  # treat all, reward 1

    def test_no_truth_gives_policy_risk_only(self):
        ds, truth = generate(SynthConfig(n=30, d=6, seed=0))
        true = truth.effects(ds.t)
        est = make_estimates(true.ite, ds.t, true.mte_at_t, true.dte_at_t)
        est.pred_t, est.pred_c = np.zeros(30), np.ones(30)
        report = effect_report(est, ds.t)
        assert report == MetricsReport(policy_risk=pytest.approx(0.0))


class TestPolicyRisk:
    def test_always_treat_with_unit_reward(self):
        assert policy_risk([1.0, 1.0], [0.0, 0.0]) == pytest.approx(0.0)

    def test_never_treat_with_unit_reward(self):
        assert policy_risk([0.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0)

    def test_tie_routes_to_control(self):
        assert policy_risk([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.5)

    def test_mixed_policy(self):
        # first unit treated (risk share 1 * 0.5), second left (0 * 0.5)
        assert policy_risk([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1 - 0.5 - 0.5)

    def test_all_treated_reduces_to_mean(self):
        pred_t = np.array([0.2, 0.8, 0.5])
        risk = policy_risk(pred_t, pred_t - 1.0)
        assert risk == pytest.approx(1.0 - pred_t.mean())

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(9), rng.standard_normal(9)
        perm = rng.permutation(9)
        assert policy_risk(a[perm], b[perm]) == pytest.approx(policy_risk(a, b))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            policy_risk([1.0], [1.0, 2.0])


def metrics_row_text(tmp_path, report):
    """The data line write_rows gives a report's cells, as metrics.csv holds them."""
    write_rows(tmp_path / "m.csv", [f.name for f in fields(MetricsReport)],
               [astuple(report)])
    return (tmp_path / "m.csv").read_text().splitlines()[1]


class TestMetricsReport:
    def test_none_fields_serialize_empty(self, tmp_path):
        rep = MetricsReport(sqrt_pehe=1.5, policy_risk=0.25)
        assert metrics_row_text(tmp_path, rep) == f"{1.5!r},,,,,{0.25!r}"

    def test_csv_row_follows_field_order(self, tmp_path):
        rep = MetricsReport(*[float(k) for k in range(6)])
        assert metrics_row_text(tmp_path, rep) == ",".join(repr(float(k)) for k in range(6))

    def test_fields_follow_dataclass_order(self):
        # metrics.csv's header is the dataclass fields, in this order
        assert tuple(f.name for f in fields(MetricsReport)) == (
            "sqrt_pehe", "eps_ate", "eps_att", "eps_mte", "eps_dte", "policy_risk")
