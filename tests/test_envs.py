import json

import numpy as np
import pytest

from hybandit.envs import (
    SyntheticEnvConfig,
    dump_environment,
    generate_environment,
    hybrid_least_squares,
    sample_unit_ball,
)
from hybandit.harness import Environment, run_trial, synthetic_environment

from oracles import dense_embed, dense_ridge, mean_reward
from test_model import random_params


class TestSampleUnitBall:
    def test_support(self, rng):
        draws = sample_unit_ball(rng, 5, 2000)
        assert np.all(np.linalg.norm(draws, axis=1) <= 1.0 + 1e-12)
        single = sample_unit_ball(rng, 3)
        assert single.shape == (3,)
        assert np.linalg.norm(single) <= 1.0

    @pytest.mark.slow
    def test_mean_is_zero(self, rng):
        n, d = 1_000_000, 5
        draws = sample_unit_ball(rng, d, n)
        # each coordinate has variance 1/(d+2); three-sigma Monte Carlo band
        sigma = np.sqrt(1.0 / (d + 2) / n)
        assert np.all(np.abs(draws.mean(axis=0)) < 3 * sigma)

    @pytest.mark.slow
    def test_second_moment_matches_analytic(self, rng):
        n, d = 1_000_000, 5
        draws = sample_unit_ball(rng, d, n)
        second = draws.T @ draws / n
        eigs = np.linalg.eigvalsh(second)
        assert abs(eigs[0] - 1.0 / 7.0) < 0.01
        assert abs(eigs[-1] - 1.0 / 7.0) < 0.01

    def test_invalid_dim(self, rng):
        with pytest.raises(ValueError):
            sample_unit_ball(rng, 0)


class TestGenerateEnvironment:
    def test_setting1_shape(self):
        cfg = SyntheticEnvConfig(d1=40, d2=5, n_arms=25, T=80000, env_seed=1)
        params, ctxs = generate_environment(cfg)
        assert params.theta.shape == (40,)
        assert params.betas.shape == (25, 5)
        assert ctxs.T == 80000
        r = ctxs.round(79999)
        assert r.xs.shape == (25, 40) and r.zs.shape == (25, 5)

    def test_setting2_shape(self):
        cfg = SyntheticEnvConfig(d1=5, d2=40, n_arms=25, T=80000, env_seed=1)
        params, _ = generate_environment(cfg)
        assert params.theta.shape == (5,)
        assert params.betas.shape == (25, 40)

    def test_norm_bounds_hold(self):
        cfg = SyntheticEnvConfig(d1=6, d2=4, n_arms=8, T=50, env_seed=3)
        params, ctxs = generate_environment(cfg)
        assert np.linalg.norm(params.theta) <= 1.0
        assert np.all(np.linalg.norm(params.betas, axis=1) <= 1.0)
        for t in range(50):
            r = ctxs.round(t)
            assert np.all(np.linalg.norm(r.xs, axis=1) <= 1.0 + 1e-12)
            assert np.all(np.linalg.norm(r.zs, axis=1) <= 1.0 + 1e-12)

    def test_bit_identical_regeneration(self):
        cfg = SyntheticEnvConfig(d1=4, d2=3, n_arms=5, T=20, env_seed=11)
        p1, c1 = generate_environment(cfg)
        p2, c2 = generate_environment(cfg)
        assert np.array_equal(p1.theta, p2.theta)
        assert np.array_equal(p1.betas, p2.betas)
        for t in range(20):
            assert np.array_equal(c1.round(t).xs, c2.round(t).xs)
            assert np.array_equal(c1.round(t).zs, c2.round(t).zs)

    def test_different_seeds_differ(self):
        p1, _ = generate_environment(SyntheticEnvConfig(d1=4, d2=3, n_arms=5, T=5, env_seed=1))
        p2, _ = generate_environment(SyntheticEnvConfig(d1=4, d2=3, n_arms=5, T=5, env_seed=2))
        assert not np.array_equal(p1.theta, p2.theta)


class TestDrawReward:
    """The reward ``run_traces`` feeds a policy: the arm's mean plus the trial's noise."""

    def test_noiseless(self):
        # with no noise the reward is the mean, so the trials of an environment coincide
        env = synthetic_environment(
            SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=200, noise_std=0.0, env_seed=5)
        )
        t0, _ = run_trial("linucb", env, 0)
        t1, _ = run_trial("linucb", env, 1)
        assert np.array_equal(t0.cum_regret, t1.cum_regret)
        assert np.array_equal(t0.chosen, t1.chosen)

    def test_negative_noise_rejected(self, rng):
        params = random_params(rng, 3, 2, 4)
        _, contexts = generate_environment(SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=5))
        with pytest.raises(ValueError):
            run_trial("linucb", Environment(0, 0, params, contexts, -0.1), 0)


class TestHybridLeastSquares:
    def test_all_zero_targets(self, rng):
        data = [
            (int(rng.integers(3)), rng.standard_normal(3) / 2, rng.standard_normal(2) / 2, 0.0)
            for _ in range(50)
        ]
        fit = hybrid_least_squares(data, n_arms=3, ridge=1e-6)
        assert np.max(np.abs(fit.params.theta)) < 1e-12
        assert np.max(np.abs(fit.params.betas)) < 1e-12
        assert fit.fit_residual == pytest.approx(0.0, abs=1e-18)

    def test_noiseless_recovery(self, rng):
        params = random_params(rng, 4, 3, 5)
        data = []
        for _ in range(5000):
            i = int(rng.integers(5))
            x = sample_unit_ball(rng, 4)
            z = sample_unit_ball(rng, 3)
            data.append((i, x, z, mean_reward(params, i, x, z)))
        fit = hybrid_least_squares(data, n_arms=5, ridge=1e-8)
        assert np.linalg.norm(fit.params.theta - params.theta) <= 1e-6
        counts = np.bincount([d[0] for d in data], minlength=5)
        for i in range(5):
            if counts[i] >= 50:
                assert np.linalg.norm(fit.params.betas[i] - params.betas[i]) <= 1e-5

    def test_single_arm_matches_dense_ridge(self, rng):
        rows, ys, data = [], [], []
        for _ in range(80):
            x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
            y = float(rng.standard_normal())
            data.append((0, x, z, y))
            rows.append(np.concatenate([x, z]))
            ys.append(y)
        fit = hybrid_least_squares(data, n_arms=1, ridge=0.5)
        ref = dense_ridge(np.array(rows), np.array(ys), 0.5)
        got = np.concatenate([fit.params.theta, fit.params.betas[0]])
        assert np.max(np.abs(got - ref)) < 1e-9

    def test_multi_arm_matches_dense_ridge(self, rng):
        # uneven arm counts, arm 3 never shown: its beta is shrunk to zero
        d1, d2, k, ridge = 4, 3, 5, 0.3
        data = []
        for _ in range(400):
            i = int(rng.choice([0, 0, 0, 1, 2, 4]))
            x, z = rng.standard_normal(d1) / 2, rng.standard_normal(d2) / 2
            data.append((i, x, z, float(rng.standard_normal())))
        fit = hybrid_least_squares(data, n_arms=k, ridge=ridge)
        rows = np.stack([dense_embed(i, x, z, k) for i, x, z, _ in data])
        ys = np.array([y for *_, y in data])
        ref = dense_ridge(rows, ys, ridge)
        got = np.concatenate([fit.params.theta, fit.params.betas.ravel()])
        assert np.max(np.abs(got - ref)) < 1e-12
        assert not np.any(fit.params.betas[3])
        assert fit.fit_residual == pytest.approx(float(np.sum((rows @ ref - ys) ** 2)), rel=1e-10)

    def test_non_finite_data_rejected(self, rng):
        data = [(0, rng.standard_normal(3), rng.standard_normal(2), 1.0) for _ in range(5)]
        data[3] = (1, np.array([0.1, np.nan, 0.2]), rng.standard_normal(2), 1.0)
        with pytest.raises(ValueError, match="finite"):
            hybrid_least_squares(data, n_arms=2)

    def test_objective_beats_zero_params(self, rng):
        ridge = 1e-3
        data = [
            (
                int(rng.integers(3)),
                rng.standard_normal(3) / 2,
                rng.standard_normal(2) / 2,
                float(rng.standard_normal()),
            )
            for _ in range(60)
        ]
        fit = hybrid_least_squares(data, n_arms=3, ridge=ridge)
        phi = np.concatenate([fit.params.theta, fit.params.betas.ravel()])
        objective = fit.fit_residual + ridge * float(phi @ phi)
        zero_objective = sum(y * y for *_, y in data)
        assert objective <= zero_objective + 1e-12

    def test_ridge_zero_needs_flag(self, rng):
        data = [(0, rng.standard_normal(2), rng.standard_normal(2), 1.0)]
        with pytest.raises(ValueError):
            hybrid_least_squares(data, n_arms=1, ridge=0.0)

    def test_empty_data_rejected(self):
        with pytest.raises(ValueError):
            hybrid_least_squares([], n_arms=1)


class TestDumpEnvironment:
    def test_round_trip_fields(self, tmp_path):
        cfg = SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=10, noise_std=0.2, env_seed=5)
        out = tmp_path / "env.json"
        dump_environment(cfg, out)
        doc = json.loads(out.read_text())
        assert doc["d1"] == 3 and doc["d2"] == 2 and doc["K"] == 4 and doc["T"] == 10
        assert doc["noise_std"] == 0.2 and doc["env_seed"] == 5
        params, _ = generate_environment(cfg)
        assert np.allclose(doc["theta"], params.theta)
        assert np.allclose(doc["betas"], params.betas)

    def test_byte_identical(self, tmp_path):
        cfg = SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=10, env_seed=5)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        dump_environment(cfg, a)
        dump_environment(cfg, b)
        assert a.read_bytes() == b.read_bytes()
