"""End-to-end acceptance criteria.

Each test exercises one criterion at its stated scale and tolerance and
prints a single PASS/FAIL line.  Heavier simulations parallelize across two
worker processes.
"""

import math
import time

import numpy as np
import pytest

from hybandit.cli import main as cli_main
from hybandit.diagnostics import shared_confidence_residual, unit_ball_diversity
from hybandit.envs import (
    SyntheticEnvConfig,
    generate_environment,
    hybrid_least_squares,
    sample_unit_ball,
)
from hybandit.harness import experiment_spec, run_experiment, run_trial, synthetic_environment
from hybandit.model import mean_rewards
from hybandit.policies import (
    DISLINUCB,
    HYLINUCB,
    LINUCB,
    PolicyConfig,
    SharedLinearUCB,
    make_policy,
)
from hybandit.replay import build_features
from hybandit.rng import derive_seed, stream

from oracles import (
    DenseDisjointUCB,
    DenseSharedUCB,
    check_elliptic_potential,
    flat_estimate,
    hermitian_dilation,
    mean_reward,
    stack_observations,
)

pytestmark = pytest.mark.acceptance

THREADS = 2


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{name}] {status}: {detail}")


def test_01_block_policies_match_dense_reference():
    t_start = time.time()
    seeds = np.random.default_rng(1001)
    worst_phi = 0.0
    mismatches = 0
    instances = 0
    for algo in (LINUCB, HYLINUCB, DISLINUCB):
        dense_cls = DenseDisjointUCB if algo == DISLINUCB else DenseSharedUCB
        for _ in range(10):
            d1 = int(seeds.integers(2, 5))
            d2 = int(seeds.integers(2, 5))
            k = int(seeds.integers(2, 6))
            env_seed = int(seeds.integers(1 << 30))
            cfg_env = SyntheticEnvConfig(d1=d1, d2=d2, n_arms=k, T=1000, env_seed=env_seed)
            params, ctxs = generate_environment(cfg_env)
            noise = 0.1 * stream(env_seed, 0, 0, "noise").standard_normal(1000)
            cfg = PolicyConfig.create(algo, d1=d1, d2=d2, n_arms=k, S=1.0, T=1000)
            block = make_policy(cfg)
            dense = dense_cls(d1, d2, k, cfg.lam, cfg.gamma)
            for t in range(1000):
                ctx = ctxs.round(t)
                a, b = block.select_arm(ctx), dense.select_arm(ctx)
                if a != b:
                    mismatches += 1
                    break
                x, z = ctx.arm(a)
                means = mean_rewards(params, ctx)
                r = float(means[a] + noise[t])
                block.update(a, x, z, r)
                dense.update(a, x, z, r)
                phi_gap = flat_estimate(block) - dense.phi.ravel()
                worst_phi = max(worst_phi, float(np.max(np.abs(phi_gap))))
            instances += 1
    elapsed = time.time() - t_start
    ok = mismatches == 0 and worst_phi <= 1e-8 and elapsed < 60
    report(
        1,
        "dense-equivalence",
        ok,
        f"{instances} instances, arm mismatches={mismatches}, "
        f"max phi deviation={worst_phi:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_02_confidence_coverage():
    t_start = time.time()
    d1 = d2 = 3
    k, T = 5, 1000
    n_trials = 200
    violated_trials = 0
    for trial in range(n_trials):
        env_seed = derive_seed(2002, trial)
        cfg_env = SyntheticEnvConfig(
            d1=d1, d2=d2, n_arms=k, T=T, noise_std=1.0, env_seed=env_seed
        )
        params, ctxs = generate_environment(cfg_env)
        cfg = PolicyConfig.create(LINUCB, d1=d1, d2=d2, n_arms=k, S=1.0, T=T, delta=0.1)
        pol = SharedLinearUCB(cfg)
        noise = stream(env_seed, 0, 0, "noise").standard_normal(T)
        violated = shared_confidence_residual(pol, params) > cfg.gamma
        for t in range(T):
            if violated:
                break
            ctx = ctxs.round(t)
            a = pol.select_arm(ctx)
            x, z = ctx.arm(a)
            pol.update(a, x, z, mean_reward(params, a, x, z) + float(noise[t]))
            violated = shared_confidence_residual(pol, params) > cfg.gamma
        violated_trials += int(violated)
    frac = violated_trials / n_trials
    elapsed = time.time() - t_start
    ok = frac <= 0.1 and elapsed < 300
    report(
        2,
        "confidence-coverage",
        ok,
        f"{violated_trials}/{n_trials} trials violated (fraction {frac:.3f} <= 0.1), "
        f"{elapsed:.0f}s",
    )
    assert ok


def test_03_elliptic_potential_deterministic():
    worst = math.inf
    # pure unit-ball sequences
    for seed, d in [(31, 6), (32, 3), (33, 12)]:
        rng = np.random.default_rng(seed)
        xs = sample_unit_ball(rng, d, 5000)
        rep = check_elliptic_potential(xs, 1.0)
        assert rep.ok
        worst = min(worst, rep.worst_slack)
    # pulled shared-block features of actual policy runs
    for algo in (LINUCB, HYLINUCB):
        env = synthetic_environment(
            SyntheticEnvConfig(d1=4, d2=4, n_arms=4, T=3000, noise_std=0.1, env_seed=34)
        )
        trace, _ = run_trial(algo, env, 0)
        xs = np.stack(
            [env.contexts.round(t).xs[trace.chosen[t]] for t in range(3000)]
        )
        rep = check_elliptic_potential(xs, 1.0)
        assert rep.ok
        worst = min(worst, rep.worst_slack)
    ok = worst >= 0.0
    report(3, "elliptic-potential", ok, f"worst slack {worst:.4f} >= 0 over all rounds")
    assert ok


def test_04_hermitian_dilation_spectrum():
    from hybandit.linalg import sym_eigenvalues

    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 9))
        q = int(rng.integers(1, 7))
        b = rng.standard_normal((p, q)) * rng.random()
        sv = np.linalg.svd(b, compute_uv=False)
        expected = np.sort(np.concatenate([sv, -sv, np.zeros(p + q - 2 * len(sv))]))
        got = sym_eigenvalues(hermitian_dilation(b))
        worst = max(worst, float(np.max(np.abs(got - expected))))
    ok = worst <= 1e-8
    report(4, "hermitian-dilation", ok, f"max eigenvalue deviation {worst:.2e} <= 1e-8")
    assert ok


def test_05_sandwich_spectrum_long_run():
    t_start = time.time()
    spec = experiment_spec(
        "custom",
        algos=(HYLINUCB,),
        d1=5,
        d2=5,
        n_arms=5,
        T=20000,
        n_envs=5,
        n_trials=4,
        noise_std=0.1,
        base_seed=5005,
        diagnostics_every=500,
        threads=THREADS,
    )
    result = run_experiment(spec)
    assert len(result.diagnostics) == 20
    passing = 0
    worst_lo, worst_hi = math.inf, -math.inf
    for diag in result.diagnostics:
        late = [s for s in diag.samples if s.round_index >= 5000]
        assert late, "no samples at or beyond round 5000"
        lo = min(s.sandwich_min for s in late)
        hi = max(s.sandwich_max for s in late)
        worst_lo, worst_hi = min(worst_lo, lo), max(worst_hi, hi)
        passing += int(0.5 <= lo and hi <= 2.0)
    elapsed = time.time() - t_start
    ok = passing >= 19
    report(
        5,
        "sandwich-spectrum",
        ok,
        f"{passing}/20 trials inside [0.5, 2.0] for all t >= 5000 "
        f"(worst range [{worst_lo:.3f}, {worst_hi:.3f}]), {elapsed:.0f}s",
    )
    assert ok


def test_06_diversity_diagnostics():
    t_start = time.time()
    d1 = d2 = 10
    k, T, delta = 25, 5000, 0.1
    spec = experiment_spec(
        "custom",
        algos=(HYLINUCB,),
        d1=d1,
        d2=d2,
        n_arms=k,
        T=T,
        n_envs=4,
        n_trials=5,
        noise_std=0.1,
        base_seed=6006,
        delta=delta,
        diagnostics_every=250,
        threads=THREADS,
    )
    result = run_experiment(spec)
    assert len(result.diagnostics) == 20
    rho = unit_ball_diversity(d1, d2)  # 1/12
    slopes = []
    ratio_bound = math.sqrt(8.0 * math.log(k * (d1 + d2) / delta))
    ratio_ok = True
    worst_ratio = 0.0
    for diag in result.diagnostics:
        rounds = diag.rounds()
        vvals = np.array([s.lambda_min_V for s in diag.samples])
        slopes.append(float(np.polyfit(rounds, vvals, 1)[0]))
        for s in diag.samples:
            pulled = s.tau > 0
            if np.any(pulled):
                r = float(np.max(s.sigma_max_B[pulled] / np.sqrt(s.tau[pulled])))
                worst_ratio = max(worst_ratio, r)
                ratio_ok = ratio_ok and r <= ratio_bound
    mean_slope = float(np.mean(slopes))
    slope_ok = 0.7 * rho <= mean_slope <= 1.3 * rho
    elapsed = time.time() - t_start
    ok = slope_ok and ratio_ok and elapsed < 600
    report(
        6,
        "diversity-diagnostics",
        ok,
        f"mean lambda_min(V) slope {mean_slope:.5f} vs band "
        f"[{0.7 * rho:.5f}, {1.3 * rho:.5f}]; "
        f"max cross-block ratio {worst_ratio:.3f} <= {ratio_bound:.3f}; {elapsed:.0f}s",
    )
    assert ok


def test_07_regret_sublinearity():
    t_start = time.time()
    ratios = {}
    ok = True
    for algo in ("linucb", "dislinucb", "hylinucb"):
        spec = experiment_spec(
            "custom",
            algos=(algo,),
            d1=5,
            d2=5,
            n_arms=10,
            T=20000,
            n_envs=2,
            n_trials=5,
            noise_std=0.1,
            base_seed=7007,
            threads=THREADS,
        )
        result = run_experiment(spec)
        curve = result.curves[algo]
        ratio = float(curve.mean[19999] / curve.mean[9999])
        ratios[algo] = ratio
        ok = ok and ratio <= 1.7
    elapsed = time.time() - t_start
    detail = ", ".join(f"{a}: Reg(2T)/Reg(T)={r:.3f}" for a, r in ratios.items())
    report(7, "sublinearity", ok, f"{detail} (<= 1.7), {elapsed:.0f}s")
    assert ok


def _ordering_env_means(d1, d2, base_seed):
    spec = experiment_spec(
        "custom",
        algos=("hylinucb", "linucb", "dislinucb"),
        d1=d1,
        d2=d2,
        n_arms=10,
        T=20000,
        n_envs=5,
        n_trials=3,
        noise_std=0.1,
        base_seed=base_seed,
        threads=THREADS,
    )
    result = run_experiment(spec)
    means: dict[int, dict[str, float]] = {}
    for tr in result.traces:
        means.setdefault(tr.env_id, {}).setdefault(tr.algo, []).append(tr.final_regret)
    return {
        env_id: {algo: float(np.mean(v)) for algo, v in per_algo.items()}
        for env_id, per_algo in means.items()
    }


def test_08_setting_orderings():
    t_start = time.time()
    shared_heavy = _ordering_env_means(20, 2, 8008)
    hits1 = sum(
        1
        for m in shared_heavy.values()
        if m["hylinucb"] <= m["linucb"] <= m["dislinucb"]
    )
    arm_heavy = _ordering_env_means(2, 20, 8009)
    hits2 = sum(
        1
        for m in arm_heavy.values()
        if m["dislinucb"] <= m["hylinucb"] <= m["linucb"]
    )
    elapsed = time.time() - t_start
    ok = hits1 >= 4 and hits2 >= 4 and elapsed < 1200
    report(
        8,
        "setting-orderings",
        ok,
        f"shared-heavy ordering hylinucb<=linucb<=dislinucb in {hits1}/5 envs; "
        f"arm-heavy ordering dislinucb<=hylinucb<=linucb in {hits2}/5 envs; {elapsed:.0f}s",
    )
    assert ok


def test_09_parameter_recovery():
    rng = np.random.default_rng(9009)
    du = dv = 3
    d1, d2, k = du * dv, dv, 5
    theta = rng.standard_normal(d1)
    theta /= 2 * np.linalg.norm(theta)
    betas = rng.standard_normal((k, d2))
    betas /= 2 * np.linalg.norm(betas, axis=1, keepdims=True)
    from hybandit.model import HybridParams

    planted = HybridParams(theta, betas, S=0.5)
    data = []
    for _ in range(5000):
        user = sample_unit_ball(rng, du)
        arms = sample_unit_ball(rng, dv, k)
        shown = int(rng.integers(k))
        x, z = build_features(user, arms[shown])
        data.append((shown, x, z, mean_reward(planted, shown, x, z)))
    fit = hybrid_least_squares(*stack_observations(data), n_arms=k, ridge=1e-8)
    theta_err = float(np.linalg.norm(fit.params.theta - planted.theta))
    counts = np.bincount([d[0] for d in data], minlength=k)
    beta_errs = [
        float(np.linalg.norm(fit.params.betas[i] - planted.betas[i]))
        for i in range(k)
        if counts[i] >= 50
    ]
    ok = theta_err <= 1e-6 and all(e <= 1e-5 for e in beta_errs)
    report(
        9,
        "parameter-recovery",
        ok,
        f"theta error {theta_err:.2e} <= 1e-6; "
        f"max beta error {max(beta_errs):.2e} <= 1e-5 over {len(beta_errs)} arms",
    )
    assert ok


def test_10_cli_determinism(tmp_path):
    args = [
        "run", "--setting", "custom", "--d1", "4", "--d2", "3", "--K", "5",
        "--T", "300", "--algos", "hylinucb,linucb,dislinucb,oracle",
        "--n-envs", "2", "--n-trials", "2", "--seed", "1010",
    ]
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(args + ["--out-dir", str(out1)]) == 0
    assert cli_main(args + ["--out-dir", str(out2)]) == 0
    same_regret = (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()
    same_summary = (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    diag_args = [
        "diagnose", "--setting", "custom", "--d1", "3", "--d2", "3", "--K", "3",
        "--T", "400", "--algos", "hylinucb", "--n-envs", "1", "--n-trials", "1",
        "--diagnostics-every", "100", "--seed", "1011",
    ]
    d1, d2 = tmp_path / "diag1", tmp_path / "diag2"
    assert cli_main(diag_args + ["--out-dir", str(d1)]) == 0
    assert cli_main(diag_args + ["--out-dir", str(d2)]) == 0
    same_diag = (d1 / "diagnostics.csv").read_bytes() == (d2 / "diagnostics.csv").read_bytes()

    ok = same_regret and same_summary and same_diag
    report(
        10,
        "cli-determinism",
        ok,
        f"regret identical={same_regret}, summary identical={same_summary}, "
        f"diagnostics identical={same_diag}",
    )
    assert ok
