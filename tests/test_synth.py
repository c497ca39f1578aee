"""Synthetic benchmark generator: basis functions, ground truth, noise model."""

import numpy as np
import pytest

from dtanet.synth import (SynthConfig, basis, covariate_distribution_check,
                          generate)


class TestBasis:
    def test_linear_component(self):
        assert basis(10, 0.7) == pytest.approx(0.7)

    def test_centered_square_at_zero(self):
        assert basis(2, 0.0) == pytest.approx(-1.0 / 3.0)

    def test_indicator(self):
        assert basis(6, 0.5) == 1.0
        assert basis(6, -0.5) == 0.0
        assert basis(6, 0.0) == 0.0

    def test_shifted_exponential_at_one(self):
        assert basis(4, 1.0) == pytest.approx(-1.0)

    def test_offset_parabola_minimum(self):
        assert basis(5, 0.5) == pytest.approx(2.0)

    def test_vectorized(self):
        out = basis(9, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, [1.0, 4.0, 9.0])

    def test_out_of_range_index(self):
        for k in (0, 16, -1):
            with pytest.raises(ValueError):
                basis(k, 0.0)


class TestSynthConfig:
    def test_defaults(self):
        cfg = SynthConfig()
        assert (cfg.n, cfg.d) == (1500, 100)
        assert (cfg.a, cfg.b, cfg.c, cfg.rho) == (2.0, 0.5, 1.0, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(n=1)
        with pytest.raises(ValueError):
            SynthConfig(d=4)
        for rho in (1.5, float("nan")):
            with pytest.raises(ValueError):
                SynthConfig(rho=rho)


class TestGenerate:
    def test_exact_effect_anchors(self):
        """Shared noise makes every per-individual effect a constant."""
        cfg = SynthConfig(n=400, d=10, seed=3)
        ds, truth = generate(cfg)
        np.testing.assert_allclose(truth.ite(), cfg.a + cfg.b * cfg.c)
        np.testing.assert_allclose(truth.mte_at(ds.t), cfg.b * cfg.c)
        np.testing.assert_allclose(truth.dte_at(ds.t), cfg.a)
        np.testing.assert_allclose(truth.m1 - truth.m0, cfg.c)

    def test_effects_track_coefficients(self):
        cfg = SynthConfig(n=50, d=6, a=-1.0, b=2.0, c=3.0, seed=1)
        _, truth = generate(cfg)
        np.testing.assert_allclose(truth.ite(), -1.0 + 6.0)
        assert truth.ame([0]) == pytest.approx(6.0)
        assert truth.ade([1]) == pytest.approx(-1.0)

    def test_zero_mediator_coupling_kills_mte(self):
        ds, truth = generate(SynthConfig(n=50, d=6, c=0.0, seed=2))
        np.testing.assert_allclose(truth.mte_at(ds.t), 0.0, atol=1e-15)
        np.testing.assert_allclose(truth.ite(), 2.0)

    def test_factual_outcome_consistency(self):
        ds, truth = generate(SynthConfig(n=200, d=8, seed=5))
        np.testing.assert_array_equal(ds.y, np.where(ds.t == 1, truth.y1, truth.y0))
        np.testing.assert_array_equal(ds.gt_y0, truth.y0)
        np.testing.assert_array_equal(ds.gt_y1, truth.y1)
        np.testing.assert_array_equal(ds.gt_m0, truth.m0)
        np.testing.assert_array_equal(ds.gt_m1, truth.m1)

    def test_decomposition_cross_terms(self):
        ds, truth = generate(SynthConfig(n=100, d=7, seed=6))
        # ITE = MTE(t) + DTE(1-t) holds world by world
        lhs = truth.ite()
        rhs = truth.mte_at(ds.t) + truth.dte_at(1 - ds.t)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_deterministic_per_seed(self):
        a1, t1 = generate(SynthConfig(n=60, d=6, seed=11))
        a2, t2 = generate(SynthConfig(n=60, d=6, seed=11))
        np.testing.assert_array_equal(a1.X, a2.X)
        np.testing.assert_array_equal(a1.y, a2.y)
        np.testing.assert_array_equal(t1.y_t1_m0, t2.y_t1_m0)
        b, _ = generate(SynthConfig(n=60, d=6, seed=12))
        assert not np.array_equal(a1.X, b.X)

    def test_treatment_rule_matches_basis_sum(self):
        ds, _ = generate(SynthConfig(n=300, d=9, seed=7))
        score = sum(basis(k, ds.X[:, k - 1]) for k in range(1, 6))
        np.testing.assert_array_equal(ds.t, (score > 0).astype(int))

    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
    def test_noise_correlation(self, rho):
        _, truth = generate(SynthConfig(n=100_000, d=5, rho=rho, seed=13))
        eps_m = truth.m0 - truth.mu_m0
        eps_y = truth.y0 - truth.mu_y0 - 0.5 * eps_m  # y0 carries b*eps_m via m0
        assert np.corrcoef(eps_m, eps_y)[0, 1] == pytest.approx(rho, abs=0.02)
        assert np.std(eps_m) == pytest.approx(1.0, abs=0.02)
        assert np.std(eps_y) == pytest.approx(1.0, abs=0.02)

    def test_trailing_covariates_are_irrelevant(self):
        """Everything beyond x5 is noise: permuting those columns across rows
        leaves t, y, and the ground truth unchanged."""
        cfg = SynthConfig(n=80, d=12, seed=17)
        ds, truth = generate(cfg)
        med = sum(basis(k + 10, ds.X[:, k - 1]) for k in range(1, 6))
        out = sum(basis(k + 5, ds.X[:, k - 1]) for k in range(1, 6))
        eps_m = truth.m0 - med
        np.testing.assert_allclose(truth.m1, med + cfg.c + eps_m, atol=1e-12)
        eps_y = truth.y0 - (out + cfg.b * truth.m0)
        np.testing.assert_allclose(truth.y1, out + cfg.a + cfg.b * truth.m1 + eps_y,
                                   atol=1e-12)

    def test_selection_shifts_confounder_means(self):
        ds, _ = generate(SynthConfig(n=5000, d=10, seed=19))
        report = covariate_distribution_check(ds)
        assert report["n_t"] + report["n_c"] == ds.n
        assert report["n_t"] > 0 and report["n_c"] > 0
        means = report["arm_means"]
        assert means.shape == (2, 10)
        # x1 enters the treatment score through -2 sin(2x): arms must differ
        shift = np.abs(means[1, :5] - means[0, :5])
        assert np.max(shift) > 0.1
        # pure-noise columns stay close
        assert np.max(np.abs(means[1, 5:] - means[0, 5:])) < 0.15

    def test_distribution_check_handles_single_arm(self):
        from dtanet.data import ObservationalDataset
        ds = ObservationalDataset(X=np.ones((3, 2)), t=[1, 1, 1], y=[0.0, 0.0, 0.0])
        report = covariate_distribution_check(ds)
        assert report["n_c"] == 0
        assert np.all(np.isnan(report["arm_means"][0]))
