import dataclasses
import math
import random

import numpy as np
import pytest

from hybandit.envs import SyntheticEnvConfig
from hybandit.harness import (
    ExperimentSpec,
    aggregate_traces,
    experiment_spec,
    run_experiment,
    run_traces,
    run_trial,
    synthetic_environment,
    write_diagnostics_csv,
    write_regret_csv,
    write_summary_csv,
)
from hybandit.model import mean_rewards
from hybandit.rng import stream

from oracles import DenseSharedUCB, dense_embed


def desk_env(seed=1, d1=3, d2=3, n_arms=5, T=400, noise_std=0.1):
    return synthetic_environment(
        SyntheticEnvConfig(d1=d1, d2=d2, n_arms=n_arms, T=T, noise_std=noise_std, env_seed=seed)
    )


class TestExperimentSpec:
    def test_named_settings(self):
        s1 = experiment_spec(1)
        assert (s1.d1, s1.d2, s1.n_arms, s1.T) == (40, 5, 25, 80000)
        s2 = experiment_spec(2)
        assert (s2.d1, s2.d2, s2.n_arms, s2.T) == (5, 40, 25, 80000)
        s3 = experiment_spec(3)
        assert (s3.d1, s3.d2, s3.T) == (5, 5, 30000)
        assert s3.k_grid == (10, 25, 50, 100, 200, 400)

    def test_scale_shrinks_with_floor(self):
        s = experiment_spec(1, scale=0.001, n_envs=5, n_trials=5)
        assert s.T == 80 and s.n_envs == 1 and s.n_trials == 1

    def test_custom_requires_dims(self):
        with pytest.raises(ValueError):
            experiment_spec("custom", d1=3, d2=2)

    def test_unknown_algo_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("custom", ("suplinucb",), 3, 2, 2, 10)

    def test_repeated_algo_rejected(self):
        # a repeated name would run the same traces twice and count them as trials
        with pytest.raises(ValueError, match="distinct"):
            experiment_spec("custom", algos=("linucb", "linucb"), d1=3, d2=2, n_arms=2, T=10)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_below_one_rejected(self, threads):
        # zero pool groups would run nothing and return no traces
        with pytest.raises(ValueError, match="threads"):
            experiment_spec("custom", d1=3, d2=2, n_arms=2, T=10, threads=threads)


class TestRunTrial:
    def test_oracle_zero_regret(self):
        trace, _ = run_trial("oracle", desk_env(), 0)
        assert trace.final_regret == 0.0
        assert np.all(trace.cum_regret == 0.0)

    def test_trace_shape_and_monotone(self):
        trace, _ = run_trial("hylinucb", desk_env(), 0)
        assert len(trace.cum_regret) == 400
        assert np.all(np.diff(trace.cum_regret) >= -1e-15)
        assert np.all((trace.chosen >= 0) & (trace.chosen < 5))

    def test_identical_reruns(self):
        t1, _ = run_trial("linucb", desk_env(), 3)
        t2, _ = run_trial("linucb", desk_env(), 3)
        assert np.array_equal(t1.cum_regret, t2.cum_regret)
        assert np.array_equal(t1.chosen, t2.chosen)

    def test_trials_share_contexts_not_noise(self):
        env = desk_env()
        t0, _ = run_trial("hylinucb", env, 0)
        t1, _ = run_trial("hylinucb", env, 1)
        assert not np.array_equal(t0.cum_regret, t1.cum_regret)

    def test_matches_dense_reference_step_for_step(self):
        env = desk_env(seed=42, d1=3, d2=3, n_arms=5, T=300)
        trace, _ = run_trial("linucb", env, 0)
        # independent replay against the dense reference implementation
        params = env.params
        from hybandit.policies import PolicyConfig

        cfg = PolicyConfig.create(
            "linucb", d1=3, d2=3, n_arms=5, S=params.S, T=300, delta=0.1
        )
        ref = DenseSharedUCB(3, 3, 5, cfg.lam, cfg.gamma)
        noise = 0.1 * stream(env.env_seed, 0, 0, "noise").standard_normal(300)
        total = 0.0
        for t in range(300):
            ctx = env.contexts.round(t)
            arm = ref.select_arm(ctx)
            assert arm == trace.chosen[t]
            means = mean_rewards(params, ctx)
            x, z = ctx.arm(arm)
            ref.update(arm, x, z, float(means[arm] + noise[t]))
            total += float(np.max(means) - means[arm])
            assert trace.cum_regret[t] == pytest.approx(total, abs=1e-9)


class CountingStream:
    """Context stream wrapper that counts ``round`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    @property
    def T(self):
        return self.inner.T

    def round(self, t):
        self.calls += 1
        return self.inner.round(t)


LOCKSTEP_RUNS = [
    ("hylinucb", 0),
    ("linucb", 1),
    ("oracle", 0),
    ("dislinucb", 2),
    ("hylinucb", 1),
]


class TestRunTraces:
    def test_negative_noise_std_rejected(self):
        env = dataclasses.replace(desk_env(), noise_std=-1.0)
        with pytest.raises(ValueError, match="noise_std"):
            run_traces(env, [("hylinucb", 0)])

    def test_lockstep_equals_one_run_at_a_time(self):
        env = desk_env(seed=5, d1=3, d2=2, n_arms=4, T=120)
        together = run_traces(env, LOCKSTEP_RUNS, diagnostics_every=40)
        alone = [run_traces(env, [run], diagnostics_every=40)[0] for run in LOCKSTEP_RUNS]
        assert len(together) == len(alone) == len(LOCKSTEP_RUNS)
        for (algo, trial), (tr_a, diag_a), (tr_b, diag_b) in zip(LOCKSTEP_RUNS, together, alone):
            assert (tr_a.algo, tr_a.trial_id) == (tr_b.algo, tr_b.trial_id) == (algo, trial)
            assert np.array_equal(tr_a.cum_regret, tr_b.cum_regret)
            assert np.array_equal(tr_a.chosen, tr_b.chosen)
            assert len(diag_a.samples) == len(diag_b.samples) == 3
            for s_a, s_b in zip(diag_a.samples, diag_b.samples):
                for f in dataclasses.fields(s_a):
                    a, b = getattr(s_a, f.name), getattr(s_b, f.name)
                    assert np.array_equal(a, b, equal_nan=True), f.name

    def test_contexts_drawn_once_per_round(self):
        env = desk_env(T=50)
        counting = CountingStream(env.contexts)
        env = dataclasses.replace(env, contexts=counting)
        run_traces(env, LOCKSTEP_RUNS)
        assert counting.calls == 50
        run_traces(env, LOCKSTEP_RUNS[:1])
        assert counting.calls == 100


class TestDiagnosticsRecompute:
    def test_sampled_quantities_match_dense_oracle(self):
        env = desk_env(seed=9, d1=3, d2=2, n_arms=4, T=300)
        trace, diag = run_trial("hylinucb", env, 0, diagnostics_every=50)
        assert diag is not None and len(diag.samples) == 6
        rng = random.Random(0)
        picks = rng.sample(range(len(diag.samples)), 3)
        # rebuild pulled-feature blocks densely from the recorded arm sequence
        for idx in picks:
            s = diag.samples[idx]
            t_end = s.round_index
            v = np.eye(3)
            w = [np.eye(2) for _ in range(4)]
            b = [np.zeros((3, 2)) for _ in range(4)]
            m = env.params  # params only set dims here
            dim = 3 + 2 * 4
            m_policy = np.eye(dim) * 4.0  # hylinucb ridge = K
            u_acc = np.zeros(dim)
            noise = 0.1 * stream(env.env_seed, 0, 0, "noise").standard_normal(300)
            for t in range(t_end):
                ctx = env.contexts.round(t)
                arm = int(trace.chosen[t])
                x, z = ctx.arm(arm)
                v += np.outer(x, x)
                w[arm] += np.outer(z, z)
                b[arm] += np.outer(x, z)
                xt = dense_embed(arm, x, z, 4)
                m_policy += np.outer(xt, xt)
                means = mean_rewards(env.params, ctx)
                u_acc += float(means[arm] + noise[t]) * xt
            assert s.lambda_min_V == pytest.approx(
                float(np.linalg.eigvalsh(v)[0]), rel=1e-6
            )
            for i in range(4):
                assert s.lambda_min_W[i] == pytest.approx(
                    float(np.linalg.eigvalsh(w[i])[0]), rel=1e-6
                )
                sv = np.linalg.svd(b[i], compute_uv=False)
                ref_sigma = float(sv[0]) if sv.size else 0.0
                assert s.sigma_max_B[i] == pytest.approx(ref_sigma, rel=1e-6, abs=1e-9)
            # sandwich of the policy design against a dense recompute
            u_mat = np.zeros_like(m_policy)
            u_mat[:3, :3] = m_policy[:3, :3]
            for i in range(4):
                sl = slice(3 + 2 * i, 5 + 2 * i)
                u_mat[sl, sl] = m_policy[sl, sl]
            vals, vecs = np.linalg.eigh(u_mat)
            u_ih = (vecs / np.sqrt(vals)) @ vecs.T
            ref_spec = np.linalg.eigvalsh(u_ih @ m_policy @ u_ih)
            assert s.sandwich_min == pytest.approx(float(ref_spec[0]), rel=1e-6)
            assert s.sandwich_max == pytest.approx(float(ref_spec[-1]), rel=1e-6)
            # confidence residual against a dense solve
            phi_hat = np.linalg.solve(m_policy, u_acc)
            phi_star = np.concatenate([env.params.theta, env.params.betas.ravel()])
            d = phi_hat - phi_star
            ref_res = math.sqrt(float(d @ m_policy @ d))
            assert s.conf_residual == pytest.approx(ref_res, rel=1e-6)
            assert int(np.sum(s.tau)) == t_end


class TestAggregation:
    def test_reorder_stable(self):
        env = desk_env(T=150)
        traces = []
        for algo in ("linucb", "hylinucb"):
            for trial in range(4):
                tr, _ = run_trial(algo, env, trial)
                traces.append(tr)
        base = aggregate_traces(traces)
        shuffled = traces[::-1]
        again = aggregate_traces(shuffled)
        for algo in base:
            assert np.max(np.abs(base[algo].mean - again[algo].mean)) < 1e-12
            assert np.max(np.abs(base[algo].std - again[algo].std)) < 1e-12

    def test_matches_numpy_mean_std(self):
        env = desk_env(T=100)
        traces = [run_trial("linucb", env, k)[0] for k in range(5)]
        agg = aggregate_traces(traces)["linucb"]
        stack = np.stack([tr.cum_regret for tr in traces])
        assert np.max(np.abs(agg.mean - stack.mean(axis=0))) < 1e-10
        assert np.max(np.abs(agg.std - stack.std(axis=0))) < 1e-10


class TestRunExperiment:
    def test_oracle_only_all_zero(self):
        spec = experiment_spec(
            "custom", algos=("oracle",), d1=3, d2=2, n_arms=4, T=50, n_envs=1, n_trials=1
        )
        result = run_experiment(spec)
        assert len(result.traces) == 1
        assert result.traces[0].final_regret == 0.0
        assert result.summary[0].mean_final_regret == 0.0
        assert result.curves["oracle"].n_trials == 1

    def test_k_grid_summary_rows(self):
        spec = experiment_spec(
            3,
            algos=("linucb", "dislinucb"),
            k_grid=(2, 3),
            T=40,
            n_envs=1,
            n_trials=1,
        )
        result = run_experiment(spec)
        keys = {(row.algo, row.n_arms) for row in result.summary}
        assert keys == {("linucb", 2), ("linucb", 3), ("dislinucb", 2), ("dislinucb", 3)}
        # a sweep's traces of different K are no one curve's trials
        assert result.curves == {}

    def test_parallel_equals_serial(self):
        custom = dict(algos=("linucb", "hylinucb"), d1=3, d2=2, n_arms=3, T=60, n_envs=2, n_trials=2)
        # a K sweep runs the jobs of every K on one pool
        sweep = dict(
            algos=("linucb", "dislinucb"), k_grid=(2, 3), T=40, n_envs=2, n_trials=1,
            diagnostics_every=20,
        )
        for setting, base, n_traces in (("custom", custom, 8), (3, sweep, 8)):
            serial = run_experiment(experiment_spec(setting, threads=1, **base))
            parallel = run_experiment(experiment_spec(setting, threads=2, **base))
            assert len(serial.traces) == len(parallel.traces) == n_traces
            for a, b in zip(serial.traces, parallel.traces):
                assert (a.algo, a.env_id, a.trial_id) == (b.algo, b.env_id, b.trial_id)
                assert np.array_equal(a.cum_regret, b.cum_regret)
                assert np.array_equal(a.chosen, b.chosen)
            assert len(serial.diagnostics) == len(parallel.diagnostics)
            for d_a, d_b in zip(serial.diagnostics, parallel.diagnostics):
                assert (d_a.algo, d_a.env_id, d_a.trial_id, d_a.n_arms) == (
                    d_b.algo, d_b.env_id, d_b.trial_id, d_b.n_arms
                )
                assert len(d_a.samples) == len(d_b.samples)
                for s_a, s_b in zip(d_a.samples, d_b.samples):
                    for f in dataclasses.fields(s_a):
                        a, b = getattr(s_a, f.name), getattr(s_b, f.name)
                        assert np.array_equal(a, b, equal_nan=True), f.name
            assert serial.summary == parallel.summary

    @pytest.mark.parametrize("threads", [2, 3])
    def test_parallel_equals_serial_one_env(self, threads):
        # one environment: its 4 runs are dealt into `threads` groups (3 gives
        # uneven groups of 2, 1 and 1 runs)
        base = dict(
            algos=("linucb", "hylinucb"), d1=3, d2=2, n_arms=3, T=60,
            n_envs=1, n_trials=2, diagnostics_every=20,
        )
        serial = run_experiment(experiment_spec("custom", threads=1, **base))
        parallel = run_experiment(experiment_spec("custom", threads=threads, **base))
        assert len(serial.traces) == len(parallel.traces) == 4
        for a, b in zip(serial.traces, parallel.traces):
            assert (a.algo, a.env_id, a.trial_id) == (b.algo, b.env_id, b.trial_id)
            assert np.array_equal(a.cum_regret, b.cum_regret)
            assert np.array_equal(a.chosen, b.chosen)
        assert [(d.algo, d.trial_id) for d in serial.diagnostics] == [
            (d.algo, d.trial_id) for d in parallel.diagnostics
        ]
        for d_a, d_b in zip(serial.diagnostics, parallel.diagnostics):
            for s_a, s_b in zip(d_a.samples, d_b.samples):
                assert s_a.conf_residual == s_b.conf_residual
                assert np.array_equal(s_a.sigma_max_B, s_b.sigma_max_B)


class TestCsvWriters:
    def test_regret_csv_layout(self, tmp_path):
        env = desk_env(T=30)
        traces = [run_trial("linucb", env, 0)[0]]
        path = tmp_path / "regret.csv"
        write_regret_csv(path, traces)
        lines = path.read_text().splitlines()
        assert lines[0] == "algo,env_id,trial_id,round,cum_regret,chosen_arm"
        assert len(lines) == 31
        first = lines[1].split(",")
        assert first[0] == "linucb" and first[3] == "1"
        # 17 significant digits round-trip
        assert float(first[4]) == traces[0].cum_regret[0]

    def test_regret_csv_stride_keeps_final(self, tmp_path):
        env = desk_env(T=30)
        traces = [run_trial("linucb", env, 0)[0]]
        path = tmp_path / "regret.csv"
        write_regret_csv(path, traces, stride=7)
        lines = path.read_text().splitlines()[1:]
        rounds = [int(line.split(",")[3]) for line in lines]
        assert rounds == [7, 14, 21, 28, 30]

    def test_summary_csv_layout(self, tmp_path):
        spec = experiment_spec(
            "custom", algos=("oracle",), d1=3, d2=2, n_arms=4, T=20, n_envs=1, n_trials=2
        )
        result = run_experiment(spec)
        path = tmp_path / "summary.csv"
        write_summary_csv(path, result.summary)
        lines = path.read_text().splitlines()
        assert lines[0] == "algo,K,d1,d2,T,mean_final_regret,std_final_regret,n_trials"
        assert lines[1].startswith("oracle,4,3,2,20,")

    def test_diagnostics_csv_layout(self, tmp_path):
        env = desk_env(T=100)
        _, diag = run_trial("hylinucb", env, 0, diagnostics_every=50)
        path = tmp_path / "diag.csv"
        write_diagnostics_csv(path, [diag])
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "algo,env_id,trial_id,round,lambda_min_V,min_over_arms_lambda_min_W,"
            "max_over_arms_sigma_max_B_over_sqrt_tau,sandwich_min,sandwich_max,"
            "conf_residual,conf_gamma"
        )
        assert len(lines) == 3
        row = lines[1].split(",")
        assert row[3] == "50"
        assert float(row[4]) >= 1.0  # lambda_min(V) >= unit ridge
