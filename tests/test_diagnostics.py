import math
import warnings

import numpy as np
import pytest

from hybandit.diagnostics import (
    DiagnosticsSample,
    DiagnosticsTrace,
    PulledFeatureTracker,
    check_confidence,
    check_elliptic_potential,
    check_sandwich,
    shared_confidence_residual,
    sample_diagnostics,
    theory_constants,
    unit_ball_diversity,
    validate_assumption,
)
from hybandit.envs import SyntheticEnvConfig, sample_unit_ball
from hybandit.harness import run_trial, synthetic_environment
from hybandit.linalg import BlockDesign
from hybandit.model import flatten
from hybandit.policies import (
    DISLINUCB,
    LINUCB,
    DisjointLinearUCB,
    PolicyConfig,
    SharedLinearUCB,
)

from oracles import assemble_dense
from test_model import random_params


class TestTheoryConstants:
    def test_frozen_example(self):
        tc = theory_constants(1.0 / 7.0, 5, 5, 25, 80000, 0.1)
        # independent evaluation: (16*49 + 56/3) * log(2*10*25*80000/0.1)
        assert tc.T_m == pytest.approx(15898.398684337997, rel=1e-12)

    def test_rho_one_direct_substitution(self):
        d1, d2, k, t, delta = 4, 3, 6, 1000, 0.05
        tc = theory_constants(1.0, d1, d2, k, t, delta)
        expected = (16 + 8 / 3) * math.log(2 * (d1 + d2) * k * t / delta)
        assert tc.T_m == pytest.approx(expected, rel=1e-12)

    def test_t_o_branch_128_over_rho_sq(self):
        # small T keeps T_m small so the 128/rho^2 branch binds
        rho, d1, d2, k, t, delta = 0.01, 3, 3, 4, 10, 0.1
        tc = theory_constants(rho, d1, d2, k, t, delta)
        t_m = (16 / rho**2 + 8 / (3 * rho)) * math.log(2 * (d1 + d2) * k * t / delta)
        if 128 / rho**2 > 4 * t_m:
            expected = (128 / rho**2) * k**2 * math.log((d1 + d2) * k / delta)
            assert tc.T_o == pytest.approx(expected, rel=1e-12)
        assert tc.T_o >= tc.T_m

    def test_gamma_per_algorithm_present(self):
        tc = theory_constants(0.1, 3, 2, 4, 100, 0.1)
        assert set(tc.gamma) == {"linucb", "dislinucb", "hylinucb"}

    def test_invalid_rho_delta(self):
        with pytest.raises(ValueError):
            theory_constants(0.0, 3, 2, 4, 100, 0.1)
        with pytest.raises(ValueError):
            theory_constants(0.5, 3, 2, 4, 100, 1.1)

    def test_unit_ball_diversity(self):
        assert unit_ball_diversity(5, 5) == pytest.approx(1.0 / 7.0)
        assert unit_ball_diversity(10, 4) == pytest.approx(1.0 / 12.0)


class TestEllipticPotential:
    def test_single_unit_step(self):
        xs = np.zeros((1, 4))
        xs[0, 0] = 1.0
        report = check_elliptic_potential(xs, 1.0)
        assert report.lhs[0] == pytest.approx(1.0)
        assert report.bound[0] == pytest.approx(8 * math.log(1 + 1 / 4))
        assert report.ok

    def test_all_zero_vectors(self):
        report = check_elliptic_potential(np.zeros((10, 3)), 1.0)
        assert np.all(report.lhs == 0.0)
        assert report.ok

    def test_holds_on_5000_random_unit_ball_steps(self):
        rng = np.random.default_rng(77)
        xs = sample_unit_ball(rng, 6, 5000)
        report = check_elliptic_potential(xs, 1.0)
        assert report.ok
        assert report.worst_slack > 0.0

    def test_rejects_bad_preconditions(self, rng):
        with pytest.raises(ValueError):
            check_elliptic_potential(np.ones((3, 2)), 0.5)
        with pytest.raises(ValueError):
            check_elliptic_potential(2.0 * np.ones((3, 2)), 1.0)


class TestConfidence:
    def make_policy(self, params, T=500):
        cfg = PolicyConfig.create(
            LINUCB,
            d1=params.d1,
            d2=params.d2,
            n_arms=params.n_arms,
            S=params.S,
            T=T,
            delta=0.1,
        )
        return SharedLinearUCB(cfg)

    def test_initial_residual_passes(self, rng):
        params = random_params(rng, 3, 2, 5)
        pol = self.make_policy(params)
        report = check_confidence(pol, params)
        lam = pol.config.lam
        expected = math.sqrt(lam) * float(np.linalg.norm(flatten(params)))
        assert report.residual == pytest.approx(expected, rel=1e-9)
        assert expected <= 2 * math.sqrt(lam * params.n_arms) * params.S
        assert report.ok

    def test_gamma_zero_fails_on_nonzero_residual(self, rng):
        params = random_params(rng, 3, 2, 4)
        pol = self.make_policy(params)
        report = check_confidence(pol, params, gamma=0.0)
        assert report.residual > 0.0
        assert not report.ok

    def test_residual_matches_dense_oracle(self, rng):
        params = random_params(rng, 3, 2, 4)
        pol = self.make_policy(params)
        for _ in range(60):
            i = int(rng.integers(4))
            x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
            pol.update(i, x, z, float(rng.standard_normal()))
        delta = pol.phi_hat() - flatten(params)
        dense = float(np.sqrt(delta @ assemble_dense(pol.design) @ delta))
        assert shared_confidence_residual(pol, params) == pytest.approx(dense, rel=1e-10)

    def test_disjoint_residual_matches_per_arm_loop(self, rng):
        params = random_params(rng, 3, 2, 4)
        cfg = PolicyConfig.create(DISLINUCB, d1=3, d2=2, n_arms=4, S=params.S, T=500)
        pol = DisjointLinearUCB(cfg)
        for _ in range(60):
            i = int(rng.integers(4))
            x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
            pol.update(i, x, z, float(rng.standard_normal()))
        per_arm = []
        for i in range(4):
            d = pol.estimates()[1][i] - np.concatenate([params.theta, params.betas[i]])
            per_arm.append(math.sqrt(float(d @ pol.design.W[i] @ d)))
        report = check_confidence(pol, params)
        assert report.residual == pytest.approx(max(per_arm), rel=1e-12)


class TestSandwich:
    def test_fresh_passes(self):
        assert check_sandwich(BlockDesign(3, 2, 4, 1.0)).ok

    def test_adversarial_correlated_features_can_fail(self):
        # x and z perfectly correlated at small t drives the spectrum wide
        bd = BlockDesign(2, 2, 1, 1e-3)
        v = np.array([0.9, 0.1])
        for _ in range(20):
            bd.block_update(0, v, v)
        report = check_sandwich(bd)
        assert not report.ok
        assert report.spectrum_min < 0.5

    def test_diverse_run_passes_late(self, rng):
        bd = BlockDesign(3, 3, 3, 1.0)
        for _ in range(600):
            bd.block_update(
                int(rng.integers(3)),
                sample_unit_ball(rng, 3),
                sample_unit_ball(rng, 3),
            )
        assert check_sandwich(bd).ok


def constant_eig_trace(n_samples=10, n_arms=2):
    trace = DiagnosticsTrace("linucb", 0, 0, n_arms, 3, 2)
    for j in range(n_samples):
        t = 100 * (j + 1)
        trace.samples.append(
            DiagnosticsSample(
                round_index=t,
                lambda_min_V=5.0,  # no growth
                lambda_min_W=np.full(n_arms, 5.0),
                sigma_max_B=np.zeros(n_arms),
                tau=np.full(n_arms, t // n_arms, dtype=np.int64),
                sandwich_min=1.0,
                sandwich_max=1.0,
                conf_residual=0.0,
                conf_gamma=1.0,
            )
        )
    return trace


class TestValidateAssumption:
    def test_flat_eigenvalues_flagged(self):
        report = validate_assumption(constant_eig_trace(), rho_expected=0.2)
        assert report.v_slope == pytest.approx(0.0, abs=1e-12)
        assert not report.v_slope_ok
        assert not report.w_slope_ok

    def test_unit_ball_run_slope_near_analytic(self):
        env = synthetic_environment(
            SyntheticEnvConfig(d1=5, d2=5, n_arms=5, T=4000, noise_std=0.1, env_seed=21)
        )
        _, diag = run_trial("hylinucb", env, 0, diagnostics_every=200)
        rho = unit_ball_diversity(5, 5)
        report = validate_assumption(diag, rho)
        assert report.v_slope == pytest.approx(rho, rel=0.3)
        assert report.v_slope_ok and report.w_slope_ok

    def test_b_norm_bound_holds_on_synthetic_run(self):
        env = synthetic_environment(
            SyntheticEnvConfig(d1=4, d2=4, n_arms=4, T=2000, noise_std=0.1, env_seed=22)
        )
        _, diag = run_trial("linucb", env, 0, diagnostics_every=100)
        report = validate_assumption(diag, unit_ball_diversity(4, 4))
        assert report.b_norm_ok
        assert report.b_ratio_max <= report.b_ratio_bound

    def test_one_pull_count_leaves_w_slope_unfitted(self):
        # at T=2 every pulled arm has tau = 1: no slope to fit, and no RankWarning
        env = synthetic_environment(
            SyntheticEnvConfig(d1=10, d2=10, n_arms=5, T=2, noise_std=0.1, env_seed=23)
        )
        _, diag = run_trial("hylinucb", env, 0, diagnostics_every=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_assumption(diag, unit_ball_diversity(10, 10))
        assert math.isnan(report.w_slope)
        assert report.w_slope_ok
        assert math.isfinite(report.v_slope)

    def test_insufficient_samples(self):
        trace = constant_eig_trace(n_samples=1)
        with pytest.raises(ValueError):
            validate_assumption(trace, 0.1)
        with pytest.raises(ValueError):
            validate_assumption(DiagnosticsTrace("x", 0, 0, 2, 3, 2), 0.1)


class TestSampleDiagnostics:
    def recorded_tracker(self, rng, d1, d2, n_arms, n):
        tracker = PulledFeatureTracker(d1, d2, n_arms)
        for _ in range(n):
            tracker.record(
                int(rng.integers(n_arms)), sample_unit_ball(rng, d1), sample_unit_ball(rng, d2)
            )
        return tracker

    def test_tracker_blocks_match_dense_accumulation(self, rng):
        d1, d2, n_arms = 3, 2, 4
        tracker = PulledFeatureTracker(d1, d2, n_arms)
        v, w, b = np.eye(d1), np.repeat(np.eye(d2)[None], n_arms, axis=0), np.zeros((n_arms, d1, d2))
        for _ in range(50):
            arm, x, z = int(rng.integers(n_arms)), sample_unit_ball(rng, d1), sample_unit_ball(rng, d2)
            tracker.record(arm, x, z)
            v += np.outer(x, x)
            w[arm] += np.outer(z, z)
            b[arm] += np.outer(x, z)
        assert np.allclose(tracker.V, v, atol=1e-12)
        assert np.allclose(tracker.W, w, atol=1e-12)
        assert np.allclose(tracker.B, b, atol=1e-12)
        assert tracker.pull_counts.sum() == 50

    def test_tracker_v_exact_past_10000_records(self, rng):
        # V stays exactly symmetric, so it needs no periodic re-symmetrization
        d1, d2, n_arms, n = 4, 2, 3, 10_001
        tracker = PulledFeatureTracker(d1, d2, n_arms)
        xs, zs = sample_unit_ball(rng, d1, n), sample_unit_ball(rng, d2, n)
        v = np.eye(d1)
        for s in range(n):
            tracker.record(s % n_arms, xs[s], zs[s])
            v += np.outer(xs[s], xs[s])
        assert np.array_equal(tracker.V, v)
        assert np.array_equal(tracker.V, tracker.V.T)
        sample = sample_diagnostics(tracker, None, None, n)
        assert sample.lambda_min_V == np.linalg.eigvalsh(v)[0]

    def test_batched_spectra_match_per_arm_loops(self, rng):
        tracker = self.recorded_tracker(rng, 4, 3, 5, 200)
        sample = sample_diagnostics(tracker, None, None, 200)
        lam_w = [np.linalg.eigvalsh(w)[0] for w in tracker.W]
        sig_b = [np.linalg.svd(b, compute_uv=False)[0] for b in tracker.B]
        assert np.allclose(sample.lambda_min_W, lam_w, rtol=1e-12, atol=0.0)
        assert np.allclose(sample.sigma_max_B, sig_b, rtol=1e-12, atol=0.0)
        assert sample.lambda_min_V == pytest.approx(np.linalg.eigvalsh(tracker.V)[0], rel=1e-12)
        assert math.isnan(sample.sandwich_min) and math.isnan(sample.conf_residual)

    def test_unpulled_arm_has_unit_eigenvalue_and_zero_cross_norm(self, rng):
        tracker = PulledFeatureTracker(3, 2, 3)
        tracker.record(1, sample_unit_ball(rng, 3), sample_unit_ball(rng, 2))
        sample = sample_diagnostics(tracker, None, None, 1)
        assert sample.sigma_max_B[0] == 0.0 and sample.sigma_max_B[2] == 0.0
        assert sample.lambda_min_W[0] == pytest.approx(1.0, abs=1e-15)
        assert list(sample.tau) == [0, 1, 0]

    def test_sandwich_sampled_above_dimension_64(self):
        # d1 + d2*K = 4 + 3*30 = 94: sampled with every diagnostics sample
        env = synthetic_environment(
            SyntheticEnvConfig(d1=4, d2=3, n_arms=30, T=300, noise_std=0.1, env_seed=23)
        )
        _, diag = run_trial("hylinucb", env, 0, diagnostics_every=100)
        assert len(diag.samples) == 3
        for s in diag.samples:
            assert math.isfinite(s.sandwich_min) and math.isfinite(s.sandwich_max)
            assert s.sandwich_min + s.sandwich_max == pytest.approx(2.0, abs=1e-12)
