import math

import numpy as np
import pytest

from hybandit.envs import SyntheticEnvConfig, generate_environment
from hybandit.model import ContextRound
from hybandit.policies import (
    DISLINUCB,
    HYLINUCB,
    LINUCB,
    DisjointLinearUCB,
    OraclePolicy,
    PolicyConfig,
    SharedLinearUCB,
    default_lambda,
    exploration_coefficient,
    make_policy,
)

from oracles import DenseSharedUCB, dense_embed, dense_ridge
from test_model import random_params, random_round


class TestExplorationCoefficient:
    # log(T/delta) = 1 at T=2, delta=2/e
    DELTA_E = 2.0 / math.e

    def test_linucb_frozen_value(self):
        got = exploration_coefficient(
            LINUCB, S=1.0, n_arms=4, d1=3, d2=2, T=2, delta=self.DELTA_E, lam=1.0
        )
        assert got == pytest.approx(8.69041575982343, rel=1e-12)

    def test_hylinucb_frozen_value(self):
        got = exploration_coefficient(
            HYLINUCB, S=1.0, n_arms=4, d1=3, d2=2, T=2, delta=self.DELTA_E
        )
        assert got == pytest.approx(10.32455532033676, rel=1e-12)

    def test_dislinucb_frozen_value(self):
        # log(K*T/delta) = 1 needs K = 1 at T=2, delta=2/e
        got = exploration_coefficient(
            DISLINUCB, S=1.0, n_arms=1, d1=3, d2=2, T=2, delta=self.DELTA_E
        )
        assert got == pytest.approx(5.16227766016838, rel=1e-12)

    def test_formula_evaluation_oracle(self):
        S, K, d1, d2, T, delta = 1.3, 7, 4, 3, 5000, 0.05
        log_td = math.log(T / delta)
        assert exploration_coefficient(
            LINUCB, S=S, n_arms=K, d1=d1, d2=d2, T=T, delta=delta, lam=2.0
        ) == pytest.approx(2 * S * math.sqrt(2.0 * K) + math.sqrt(2 * (d1 + d2 * K) * log_td))
        assert exploration_coefficient(
            HYLINUCB, S=S, n_arms=K, d1=d1, d2=d2, T=T, delta=delta
        ) == pytest.approx(2 * (S * math.sqrt(K) + math.sqrt(2 * (d1 + d2) * log_td)))
        assert exploration_coefficient(
            DISLINUCB, S=S, n_arms=K, d1=d1, d2=d2, T=T, delta=delta
        ) == pytest.approx(2 * math.sqrt(S) + math.sqrt(2 * (d1 + d2) * math.log(K * T / delta)))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            exploration_coefficient(LINUCB, S=1, n_arms=2, d1=2, d2=2, T=1, delta=0.1)
        with pytest.raises(ValueError):
            exploration_coefficient(LINUCB, S=1, n_arms=2, d1=2, d2=2, T=10, delta=1.5)


class TestDefaultLambda:
    def test_values(self):
        assert default_lambda(LINUCB, 25) == 1.0
        assert default_lambda(HYLINUCB, 25) == 25.0
        assert default_lambda(DISLINUCB, 400) == 1.0


class TestPolicyConfig:
    def test_defaults_not_overridden(self):
        cfg = PolicyConfig.create(HYLINUCB, d1=3, d2=2, n_arms=4, S=1.0, T=100)
        assert cfg.lam == 4.0

    def test_override_recorded(self):
        cfg = PolicyConfig.create(
            HYLINUCB, d1=3, d2=2, n_arms=4, S=1.0, T=100, gamma=1.0
        )
        assert cfg.gamma == 1.0


def fresh_shared(algo=HYLINUCB, d1=3, d2=2, n_arms=4, T=500, **kw):
    cfg = PolicyConfig.create(algo, d1=d1, d2=d2, n_arms=n_arms, S=1.0, T=T, **kw)
    return SharedLinearUCB(cfg)


def score_of(pol, arm, x, z):
    """UCB score of (x, z) in ``arm``'s slot, read off the batched ``scores``."""
    n_arms = pol.config.n_arms
    xs = np.zeros((n_arms, len(x)))
    zs = np.zeros((n_arms, len(z)))
    xs[arm], zs[arm] = x, z
    return float(pol.scores(ContextRound(xs, zs))[arm])


class TestUcbScore:
    def test_fresh_state_is_scaled_norm(self, rng):
        pol = fresh_shared(LINUCB)
        x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
        norm = math.sqrt(float(x @ x + z @ z))
        expected = pol.config.gamma * norm / math.sqrt(pol.config.lam)
        assert score_of(pol, 1, x, z) == pytest.approx(expected, rel=1e-12)

    def test_gamma_zero_gives_plain_mean(self, rng):
        pol = fresh_shared(LINUCB, gamma=0.0)
        ctx = random_round(rng, 3, 2, 4)
        for _ in range(30):
            i = int(rng.integers(4))
            pol.update(i, ctx.xs[i], ctx.zs[i], float(rng.standard_normal()))
        theta, betas = pol.estimates()
        got = pol.scores(ctx)
        for i in range(4):
            expected = float(theta @ ctx.xs[i] + betas[i] @ ctx.zs[i])
            assert got[i] == pytest.approx(expected, rel=1e-10), i

    @pytest.mark.parametrize(
        "d1, d2, n_arms, refresh_every",
        [(3, 2, 4, None), (12, 2, 3, None), (3, 2, 4, 25)],
        # the last case's 60 updates cross two design refreshes
        ids=["d2K_above_d1", "d2K_below_d1", "across_refresh"],
    )
    def test_matches_dense_oracle(self, rng, monkeypatch, d1, d2, n_arms, refresh_every):
        if refresh_every is not None:
            monkeypatch.setattr("hybandit.linalg.INVERSE_REFRESH_EVERY", refresh_every)
        cfg = PolicyConfig.create(HYLINUCB, d1=d1, d2=d2, n_arms=n_arms, S=1.0, T=500)
        pol = SharedLinearUCB(cfg)
        ref = DenseSharedUCB(d1, d2, n_arms, cfg.lam, cfg.gamma)
        for _ in range(60):
            i = int(rng.integers(n_arms))
            x, z = rng.standard_normal(d1) / 2, rng.standard_normal(d2) / 2
            r = float(rng.standard_normal())
            pol.update(i, x, z, r)
            ref.update(i, x, z, r)
        ctx = random_round(rng, d1, d2, n_arms)
        assert np.max(np.abs(pol.scores(ctx) - ref.scores(ctx))) < 1e-8


class TestSelectArm:
    def test_fresh_state_prefers_largest_norm(self, rng):
        pol = fresh_shared()
        xs = np.zeros((4, 3))
        zs = np.zeros((4, 2))
        norms = [0.9, 0.7, 0.5, 0.3]
        for i, n in enumerate(norms):
            xs[i, 0] = n
        assert pol.select_arm(ContextRound(xs, zs)) == 0

    def test_tie_breaks_lowest_index(self, rng):
        pol = fresh_shared()
        x = rng.standard_normal(3) / 2
        z = rng.standard_normal(2) / 2
        ctx = ContextRound(np.tile(x, (4, 1)), np.tile(z, (4, 1)))
        assert pol.select_arm(ctx) == 0

    def test_scaling_scores_keeps_argmax(self, rng):
        pol = fresh_shared()
        for _ in range(25):
            i = int(rng.integers(4))
            pol.update(i, rng.standard_normal(3) / 2, rng.standard_normal(2) / 2, rng.random())
        ctx = random_round(rng, 3, 2, 4)
        scores = pol.scores(ctx)
        assert int(np.argmax(scores)) == int(np.argmax(17.3 * scores))


class TestSharedUpdate:
    def test_zero_vector_changes_only_counters(self, rng):
        pol = fresh_shared()
        pol.update(1, rng.standard_normal(3) / 2, rng.standard_normal(2) / 2, 0.5)
        phi_before = pol.phi_hat().copy()
        t_before = pol.design.t
        pol.update(2, np.zeros(3), np.zeros(2), 3.0)
        assert pol.design.t == t_before + 1
        assert np.max(np.abs(pol.phi_hat() - phi_before)) < 1e-12

    def test_single_observation_closed_form(self, rng):
        pol = fresh_shared(LINUCB, d1=3, d2=2, n_arms=3)
        x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
        r = 0.7
        pol.update(1, x, z, r)
        xt = dense_embed(1, x, z, 3)
        expected = r * xt / (pol.config.lam + float(xt @ xt))
        assert np.max(np.abs(pol.phi_hat() - expected)) < 1e-12

    def test_estimate_matches_dense_ridge_oracle(self, rng):
        pol = fresh_shared(LINUCB, d1=3, d2=2, n_arms=4)
        rows, ys = [], []
        for _ in range(300):
            i = int(rng.integers(4))
            x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
            r = float(rng.standard_normal())
            pol.update(i, x, z, r)
            rows.append(dense_embed(i, x, z, 4))
            ys.append(r)
        ref = dense_ridge(np.array(rows), np.array(ys), pol.config.lam)
        assert np.max(np.abs(pol.phi_hat() - ref)) < 1e-8

    def test_rejects_non_finite_reward(self, rng):
        pol = fresh_shared()
        with pytest.raises(ValueError):
            pol.update(0, np.zeros(3), np.zeros(2), float("nan"))
        with pytest.raises(ValueError):
            pol.update(0, np.zeros(3), np.zeros(2), float("inf"))


def state_snapshot(pol):
    """Copies of every array and counter a policy (and its block design) holds."""
    holders = [("", pol)] + ([("design.", pol.design)] if hasattr(pol, "design") else [])
    return {
        prefix + name: np.copy(val) if isinstance(val, np.ndarray) else val
        for prefix, obj in holders
        for name, val in vars(obj).items()
        if isinstance(val, (np.ndarray, int))
    }


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("algo", [LINUCB, HYLINUCB, DISLINUCB])
    @pytest.mark.parametrize("where", ["x", "z"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejected_and_state_unchanged(self, rng, algo, where, value):
        pol = make_policy(PolicyConfig.create(algo, d1=3, d2=2, n_arms=4, S=1.0, T=500))
        for _ in range(5):
            i = int(rng.integers(4))
            pol.update(i, rng.standard_normal(3) / 2, rng.standard_normal(2) / 2, rng.random())
        before = state_snapshot(pol)
        x, z = rng.standard_normal(3) / 2, rng.standard_normal(2) / 2
        (x if where == "x" else z)[1] = value
        with pytest.raises(ValueError, match="finite"):
            pol.update(2, x, z, 0.5)
        after = state_snapshot(pol)
        assert before.keys() == after.keys()
        for name in before:
            assert np.array_equal(before[name], after[name]), name


class TestDisjoint:
    def make(self, n_arms=3, T=400, **kw):
        cfg = PolicyConfig.create(DISLINUCB, d1=2, d2=2, n_arms=n_arms, S=1.0, T=T, **kw)
        return DisjointLinearUCB(cfg)

    def test_per_arm_state_isolated(self, rng):
        pol = self.make()
        updates = [
            (int(rng.integers(3)), rng.standard_normal(2) / 2, rng.standard_normal(2) / 2, rng.random())
            for _ in range(40)
        ]
        for i, x, z, r in updates:
            pol.update(i, x, z, r)
        # replay only arm 1's updates into a fresh policy: identical state
        solo = self.make()
        for i, x, z, r in updates:
            if i == 1:
                solo.update(i, x, z, r)
        assert np.allclose(pol.estimates()[1][1], solo.estimates()[1][1], atol=1e-14)
        assert np.allclose(pol.design.W[1], solo.design.W[1], atol=1e-14)

    def test_matches_per_arm_dense_ridge(self, rng):
        pol = self.make()
        rows = {i: [] for i in range(3)}
        ys = {i: [] for i in range(3)}
        for _ in range(120):
            i = int(rng.integers(3))
            x, z = rng.standard_normal(2) / 2, rng.standard_normal(2) / 2
            r = float(rng.standard_normal())
            pol.update(i, x, z, r)
            rows[i].append(np.concatenate([x, z]))
            ys[i].append(r)
        for i in range(3):
            if rows[i]:
                ref = dense_ridge(np.array(rows[i]), np.array(ys[i]), pol.config.lam)
                assert np.max(np.abs(pol.estimates()[1][i] - ref)) < 1e-9

    @pytest.mark.parametrize("refresh_every", [None, 7])
    def test_scores_match_per_arm_loop(self, rng, monkeypatch, refresh_every):
        if refresh_every is not None:
            # 120 updates over 3 arms refresh every arm's inverse several times
            monkeypatch.setattr("hybandit.linalg.INVERSE_REFRESH_EVERY", refresh_every)
        pol = self.make()
        for _ in range(120):
            i = int(rng.integers(3))
            x, z = rng.standard_normal(2) / 2, rng.standard_normal(2) / 2
            pol.update(i, x, z, float(rng.standard_normal()))
        ctx = random_round(rng, 2, 2, 3)
        got = pol.scores(ctx)
        for i in range(3):
            xbar = np.concatenate([ctx.xs[i], ctx.zs[i]])
            expected = float(xbar @ pol.estimates()[1][i]) + pol.config.gamma * math.sqrt(
                float(xbar @ pol.design.W_inv[i] @ xbar)
            )
            assert got[i] == pytest.approx(expected, rel=1e-12), i

    def test_score_fresh_state(self, rng):
        pol = self.make()
        x, z = rng.standard_normal(2) / 2, rng.standard_normal(2) / 2
        xbar = np.concatenate([x, z])
        expected = pol.config.gamma * np.linalg.norm(xbar)
        assert score_of(pol, 0, x, z) == pytest.approx(expected, rel=1e-12)


class TestOraclePolicy:
    def test_picks_maximizer_and_zero_regret(self, rng):
        from hybandit.model import instantaneous_regret, mean_rewards

        params = random_params(rng, 3, 2, 5)
        pol = OraclePolicy(params)
        for _ in range(20):
            ctx = random_round(rng, 3, 2, 5)
            arm = pol.select_arm(ctx)
            assert instantaneous_regret(params, ctx, arm) == 0.0
            assert mean_rewards(params, ctx)[arm] == pytest.approx(
                float(np.max(mean_rewards(params, ctx)))
            )


class TestDenseEquivalence:
    @pytest.mark.parametrize("algo", [LINUCB, HYLINUCB])
    def test_identical_trajectory(self, algo):
        cfg_env = SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=250, env_seed=99)
        params, ctxs = generate_environment(cfg_env)
        noise_rng = np.random.default_rng(5)
        cfg = PolicyConfig.create(algo, d1=3, d2=2, n_arms=4, S=1.0, T=250)
        block = SharedLinearUCB(cfg)
        dense = DenseSharedUCB(3, 2, 4, cfg.lam, cfg.gamma)
        for t in range(250):
            ctx = ctxs.round(t)
            a, b = block.select_arm(ctx), dense.select_arm(ctx)
            assert a == b
            x, z = ctx.arm(a)
            r = float(params.theta @ x + params.betas[a] @ z) + 0.1 * noise_rng.standard_normal()
            block.update(a, x, z, r)
            dense.update(a, x, z, r)
            assert np.max(np.abs(block.phi_hat() - dense.phi)) < 1e-8


def test_determinism_bit_identical():
    cfg_env = SyntheticEnvConfig(d1=3, d2=2, n_arms=4, T=100, env_seed=7)

    def run():
        params, ctxs = generate_environment(cfg_env)
        cfg = PolicyConfig.create(HYLINUCB, d1=3, d2=2, n_arms=4, S=1.0, T=100)
        pol = make_policy(cfg)
        arms = []
        for t in range(100):
            ctx = ctxs.round(t)
            a = pol.select_arm(ctx)
            x, z = ctx.arm(a)
            pol.update(a, x, z, float(params.theta @ x + params.betas[a] @ z))
            arms.append(a)
        return arms, pol.phi_hat()

    arms1, phi1 = run()
    arms2, phi2 = run()
    assert arms1 == arms2
    assert np.array_equal(phi1, phi2)


class TestSharedRoundUnchanged:
    @pytest.mark.parametrize("algo", [LINUCB, HYLINUCB, DISLINUCB, "oracle"])
    def test_select_and_update_leave_round_values(self, rng, algo):
        params = random_params(rng, 3, 2, 4)
        if algo == "oracle":
            pol = OraclePolicy(params)
        else:
            pol = make_policy(PolicyConfig.create(algo, d1=3, d2=2, n_arms=4, S=1.0, T=500))
        for _ in range(30):
            ctx = random_round(rng, 3, 2, 4)
            xs, zs = ctx.xs.copy(), ctx.zs.copy()
            arm = pol.select_arm(ctx)
            x, z = ctx.arm(arm)
            pol.update(arm, x, z, float(rng.standard_normal()))
            assert np.array_equal(ctx.xs, xs) and np.array_equal(ctx.zs, zs)
