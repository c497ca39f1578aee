"""Synthetic benchmark generator: basis functions, ground truth, noise model."""

import numpy as np
import pytest

from dtanet.synth import SynthConfig, basis, generate


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
        true = truth.effects(ds.t)
        np.testing.assert_allclose(true.ite, cfg.a + cfg.b * cfg.c)
        np.testing.assert_allclose(true.mte_at_t, cfg.b * cfg.c)
        np.testing.assert_allclose(true.dte_at_t, cfg.a)
        np.testing.assert_allclose(truth.m1 - truth.m0, cfg.c)

    def test_effects_track_coefficients(self):
        cfg = SynthConfig(n=50, d=6, a=-1.0, b=2.0, c=3.0, seed=1)
        _, truth = generate(cfg)
        np.testing.assert_allclose(truth.effects([0]).ite, -1.0 + 6.0)
        assert truth.effects([0]).ame == pytest.approx(6.0)
        assert truth.effects([1]).ade == pytest.approx(-1.0)

    def test_zero_mediator_coupling_kills_mte(self):
        ds, truth = generate(SynthConfig(n=50, d=6, c=0.0, seed=2))
        np.testing.assert_allclose(truth.effects(ds.t).mte_at_t, 0.0, atol=1e-15)
        np.testing.assert_allclose(truth.effects(ds.t).ite, 2.0)

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
        lhs = truth.effects(ds.t).ite
        rhs = truth.effects(ds.t).mte_at_t + truth.effects(1 - ds.t).dte_at_t
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("status", ["mixed", "all_control", "broadcast"])
    def test_effects_equal_the_per_effect_formulas_bit_for_bit(self, status):
        """effects(t) gives the bits of the formulas GroundTruth had one
        method each for (ite, mte_at, dte_at, ame, ade) and of the means
        effect_report took of the true ITE."""
        ds, truth = generate(SynthConfig(n=90, d=6, a=1.3, b=-0.7, c=2.1,
                                         rho=0.4, seed=8))
        t = {"mixed": ds.t, "all_control": np.zeros(ds.n, dtype=int),
             "broadcast": np.array([0])}[status]

        def mte_at(t):
            return np.where(t == 1, truth.y1 - truth.y_t1_m0, truth.y_t0_m1 - truth.y0)

        def dte_at(t):
            return np.where(t == 1, truth.y1 - truth.y_t0_m1, truth.y_t1_m0 - truth.y0)

        ite = truth.y1 - truth.y0
        got = truth.effects(t)
        np.testing.assert_array_equal(got.ite, ite)
        np.testing.assert_array_equal(got.mte_at_t, mte_at(t))
        np.testing.assert_array_equal(got.dte_at_t, dte_at(t))
        np.testing.assert_array_equal(got.dte_at_other, dte_at(1 - t))
        assert got.ame == float(np.mean(mte_at(t)))
        assert got.ade == float(np.mean(dte_at(t)))
        assert got.ate == float(np.mean(ite))
        if status == "mixed":
            assert 0 < np.sum(t) < ds.n
            assert got.att == float(np.mean(ite[t == 1]))
        else:
            assert np.isnan(got.att)

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
        treated = ds.t == 1
        assert 0 < np.sum(treated) < ds.n
        means = np.stack([ds.X[~treated].mean(axis=0), ds.X[treated].mean(axis=0)])
        # x1 enters the treatment score through -2 sin(2x): arms must differ
        shift = np.abs(means[1, :5] - means[0, :5])
        assert np.max(shift) > 0.1
        # pure-noise columns stay close
        assert np.max(np.abs(means[1, 5:] - means[0, 5:])) < 0.15
