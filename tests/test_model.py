import numpy as np
import pytest

from hybandit.harness import Environment, run_trial
from hybandit.model import ContextRound, HybridParams, mean_rewards

from oracles import brute_force_best_arm, dense_embed, embed, flat_params, mean_reward


def random_params(rng, d1, d2, n_arms, S=1.0):
    theta = rng.standard_normal(d1)
    theta *= S * rng.random() / max(1.0, np.linalg.norm(theta))
    betas = rng.standard_normal((n_arms, d2))
    betas *= (S * rng.random((n_arms, 1))) / np.maximum(
        1.0, np.linalg.norm(betas, axis=1, keepdims=True)
    )
    return HybridParams(theta, betas, S=S)


def random_round(rng, d1, d2, n_arms):
    xs = rng.standard_normal((n_arms, d1))
    xs /= np.maximum(1.0, np.linalg.norm(xs, axis=1, keepdims=True))
    zs = rng.standard_normal((n_arms, d2))
    zs /= np.maximum(1.0, np.linalg.norm(zs, axis=1, keepdims=True))
    return ContextRound(xs, zs)


class TestEmbed:
    def test_second_arm_layout(self):
        u = embed(1, np.array([1.0, 2.0]), np.array([3.0]), n_arms=2)
        assert np.array_equal(u.dense(2), np.array([1.0, 2.0, 0.0, 3.0]))

    def test_zero_features(self):
        u = embed(0, np.zeros(2), np.zeros(1), n_arms=2)
        assert not np.any(u.dense(2))

    def test_preserves_mean_reward(self, rng):
        d1, d2, n_arms = 4, 3, 5
        params = random_params(rng, d1, d2, n_arms)
        phi = flat_params(params)
        for _ in range(20):
            i = int(rng.integers(n_arms))
            x = rng.standard_normal(d1) / 3
            z = rng.standard_normal(d2) / 3
            direct = float(x @ params.theta + z @ params.betas[i])
            embedded = float(embed(i, x, z, n_arms).dense(n_arms) @ phi)
            assert embedded == pytest.approx(direct, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        x, z = rng.standard_normal(3), rng.standard_normal(2)
        u = embed(2, x, z, n_arms=4)
        assert np.array_equal(u.dense(4), dense_embed(2, x, z, 4))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            embed(2, np.zeros(2), np.zeros(1), n_arms=2)


class TestFlatten:
    def test_flat_norm_bound(self, rng):
        for _ in range(10):
            p = random_params(rng, 3, 2, 6)
            assert np.linalg.norm(flat_params(p)) <= p.S * np.sqrt(7) + 1e-12


class TestHybridParams:
    def test_rejects_norm_violation(self):
        with pytest.raises(ValueError):
            HybridParams(np.array([2.0, 0.0]), np.zeros((1, 2)), S=1.0)
        with pytest.raises(ValueError):
            HybridParams(np.zeros(2), np.array([[3.0, 0.0]]), S=1.0)


def one_arm(x, z):
    return ContextRound(np.asarray(x, dtype=float)[None], np.asarray(z, dtype=float)[None])


class TestMeanReward:
    def test_aligned_unit_vectors(self):
        p = HybridParams(np.array([1.0, 0.0]), np.array([[1.0, 0.0]]))
        assert mean_rewards(p, one_arm([1.0, 0.0], [1.0, 0.0]))[0] == 2.0

    def test_zero_features(self, rng):
        p = random_params(rng, 3, 2, 2)
        assert not np.any(mean_rewards(p, ContextRound(np.zeros((2, 3)), np.zeros((2, 2)))))

    def test_matches_embedding(self, rng):
        p = random_params(rng, 3, 2, 4)
        phi = flat_params(p)
        for _ in range(10):
            ctx = random_round(rng, 3, 2, 4)
            got = mean_rewards(p, ctx)
            for i in range(4):
                assert got[i] == pytest.approx(
                    float(embed(i, ctx.xs[i], ctx.zs[i], 4).dense(4) @ phi), abs=1e-12
                )

    def test_bounded_by_2s(self, rng):
        p = random_params(rng, 3, 2, 4, S=1.5)
        ctx = random_round(rng, 3, 2, 4)
        assert np.all(np.abs(mean_rewards(p, ctx)) <= 2 * 1.5 + 1e-12)


class FixedRounds:
    """Context stream of the given rounds."""

    def __init__(self, rounds):
        self.rounds = rounds
        self.T = len(rounds)

    def round(self, t):
        return self.rounds[t]


def round_regret(p, ctx, algo="linucb"):
    """Chosen arm and regret of a noiseless first round of ``algo``, as ``run_traces`` charges it.

    The round is played twice, since a policy needs a horizon of at least 2.
    """
    trace, _ = run_trial(algo, Environment(0, 0, p, FixedRounds([ctx, ctx]), 0.0), 0)
    return int(trace.chosen[0]), float(trace.cum_regret[0])


class TestInstantaneousRegret:
    """The per-round regret increment of ``run_traces``: best mean minus the chosen arm's."""

    def test_simple_gap(self):
        # a fresh LinUCB scores gamma * |(x, z)| / sqrt(lambda): it picks the wider arm 1
        p = HybridParams(np.array([1.0]), np.array([[0.0], [0.0]]))
        ctx = ContextRound(np.array([[0.5], [0.2]]), np.array([[0.0], [0.9]]))
        assert round_regret(p, ctx) == (1, pytest.approx(0.3))

    def test_zero_for_argmax(self, rng):
        p = random_params(rng, 3, 2, 5)
        ctx = random_round(rng, 3, 2, 5)
        best = int(np.argmax(mean_rewards(p, ctx)))
        assert round_regret(p, ctx, "oracle") == (best, 0.0)

    def test_zero_for_tied_maximizer(self):
        p = HybridParams(np.array([1.0]), np.zeros((2, 1)))
        ctx = ContextRound(np.array([[0.7], [0.7]]), np.zeros((2, 1)))
        for algo in ("linucb", "dislinucb", "oracle"):
            assert round_regret(p, ctx, algo)[1] == 0.0

    def test_matches_brute_force(self, rng):
        p = random_params(rng, 3, 2, 6)
        rounds = [random_round(rng, 3, 2, 6) for _ in range(20)]
        trace, _ = run_trial("hylinucb", Environment(0, 0, p, FixedRounds(rounds), 0.0), 0)
        increments = np.diff(trace.cum_regret, prepend=0.0)
        for ctx, chosen, got in zip(rounds, trace.chosen, increments):
            _, best = brute_force_best_arm(p, ctx)
            ref = best - mean_reward(p, chosen, ctx.xs[chosen], ctx.zs[chosen])
            assert got == pytest.approx(max(0.0, ref), abs=1e-12)
            assert got >= 0.0


class TestContextRoundReadOnly:
    def test_writes_raise(self, rng):
        ctx = random_round(rng, 3, 2, 4)
        with pytest.raises(ValueError):
            ctx.xs[0, 0] = 1.0
        with pytest.raises(ValueError):
            ctx.zs[1] = 0.0
        x, z = ctx.arm(2)
        with pytest.raises(ValueError):
            x += 1.0
        with pytest.raises(ValueError):
            z[0] = 1.0

    def test_caller_arrays_stay_writeable(self, rng):
        xs, zs = rng.standard_normal((4, 3)), rng.standard_normal((4, 2))
        ctx = ContextRound(xs, zs)
        assert xs.flags.writeable and zs.flags.writeable
        xs[0, 0] = 7.0
        assert ctx.xs[0, 0] == 7.0  # a view, not a copy
