"""Experiment orchestration: trials, regret traces, aggregation, CSV export.

The canonical benchmark settings (matching the synthetic protocol this
package reproduces) are

    setting 1: d1=40, d2=5,  K=25, T=80000   (many shared parameters)
    setting 2: d1=5,  d2=40, K=25, T=80000   (many arm parameters)
    setting 3: d1=5,  d2=5,  T=30000, K swept over a grid

each run over ``n_envs`` independently seeded environments with ``n_trials``
reward-noise trials per environment.  :func:`run_traces` steps all runs of
an environment in lockstep, drawing each round's contexts once; a pool runs
groups of them (see :func:`run_experiment`).  Results are merged in a fixed
order so output files are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .diagnostics import DiagnosticsTrace, sample_diagnostics
from .envs import SyntheticEnvConfig, generate_environment
from .model import HybridParams, mean_rewards
from .policies import (
    ALGORITHMS,
    ORACLE,
    OraclePolicy,
    PolicyConfig,
    make_policy,
)
from .rng import derive_seed, stream

SETTING_SHAPES = {
    1: {"d1": 40, "d2": 5, "n_arms": 25, "T": 80000},
    2: {"d1": 5, "d2": 40, "n_arms": 25, "T": 80000},
    3: {"d1": 5, "d2": 5, "n_arms": None, "T": 30000},
}
DEFAULT_K_GRID = (10, 25, 50, 100, 200, 400)
VALID_ALGOS = (*ALGORITHMS, ORACLE)


@dataclass(frozen=True)
class Environment:
    """One reward world: true parameters plus a context stream."""

    env_id: int
    env_seed: int
    params: HybridParams
    contexts: object  # anything with .T and .round(t)
    noise_std: float


def synthetic_environment(cfg: SyntheticEnvConfig, env_id: int = 0) -> Environment:
    params, contexts = generate_environment(cfg)
    return Environment(env_id, cfg.env_seed, params, contexts, cfg.noise_std)


@dataclass(frozen=True)
class ExperimentSpec:
    """Resolved description of one experiment run."""

    setting: int | str
    algos: tuple[str, ...]
    d1: int
    d2: int
    n_arms: int
    T: int
    n_envs: int = 5
    n_trials: int = 5
    noise_std: float = 0.1
    S: float = 1.0
    delta: float = 0.1
    base_seed: int = 0
    diagnostics_every: int = 0
    k_grid: tuple[int, ...] = ()
    threads: int = 1

    def __post_init__(self):
        for algo in self.algos:
            if algo not in VALID_ALGOS:
                raise ValueError(f"unknown algorithm {algo!r}; expected one of {VALID_ALGOS}")
        if len(set(self.algos)) != len(self.algos):
            raise ValueError(f"algorithms must be distinct, got {self.algos}")
        if min(self.d1, self.d2, self.n_arms, self.T, self.n_envs, self.n_trials) < 1:
            raise ValueError("dimensions, horizon and trial counts must be positive")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")


def experiment_spec(
    setting: int | str = "custom",
    *,
    algos=("hylinucb", "linucb", "dislinucb"),
    n_envs: int = 5,
    n_trials: int = 5,
    scale: float = 1.0,
    k_grid=(),
    base_seed: int = 0,
    noise_std: float = 0.1,
    S: float = 1.0,
    delta: float = 0.1,
    diagnostics_every: int = 0,
    threads: int = 1,
    d1: int | None = None,
    d2: int | None = None,
    n_arms: int | None = None,
    T: int | None = None,
) -> ExperimentSpec:
    """Build a spec from a named setting plus overrides.

    ``scale`` shrinks the horizon and trial counts uniformly (floored at 1)
    so the full-size settings can be exercised at desk scale.
    """
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    shape = dict(SETTING_SHAPES.get(setting, {}))  # type: ignore[arg-type]
    if setting == 3 and not k_grid:
        k_grid = DEFAULT_K_GRID
    resolved = {
        "d1": d1 if d1 is not None else shape.get("d1"),
        "d2": d2 if d2 is not None else shape.get("d2"),
        "n_arms": n_arms if n_arms is not None else shape.get("n_arms"),
        "T": T if T is not None else shape.get("T"),
    }
    if resolved["n_arms"] is None and k_grid:
        resolved["n_arms"] = int(k_grid[0])
    for name, value in resolved.items():
        if value is None:
            raise ValueError(f"{name} must be given for setting {setting!r}")
    return ExperimentSpec(
        setting=setting,
        algos=tuple(algos),
        d1=int(resolved["d1"]),
        d2=int(resolved["d2"]),
        n_arms=int(resolved["n_arms"]),
        T=max(1, int(round(resolved["T"] * scale))),
        n_envs=max(1, int(round(n_envs * scale))) if scale < 1 else n_envs,
        n_trials=max(1, int(round(n_trials * scale))) if scale < 1 else n_trials,
        noise_std=noise_std,
        S=S,
        delta=delta,
        base_seed=base_seed,
        diagnostics_every=diagnostics_every,
        k_grid=tuple(int(k) for k in k_grid),
        threads=threads,
    )


@dataclass
class RegretTrace:
    """Per-round cumulative regret and chosen arms of one trial."""

    algo: str
    env_id: int
    trial_id: int
    cum_regret: np.ndarray
    chosen: np.ndarray

    @property
    def final_regret(self) -> float:
        return float(self.cum_regret[-1])


def run_traces(
    env: Environment, runs, *, delta: float = 0.1, diagnostics_every: int = 0
) -> list[tuple[RegretTrace, DiagnosticsTrace | None]]:
    """Step every ``(algo, trial)`` pair of ``runs`` through one environment in lockstep.

    Each round's contexts, mean rewards and best mean are computed once and
    shared by all runs: every algorithm and trial of an environment sees the
    same context sequence.  Each run keeps its own policy, reward noise from
    the (env_seed, trial) stream (drawn once per round independently of the
    chosen arm) and regret trace, so its outputs do not depend on which runs
    share the loop.  With ``diagnostics_every`` > 0 a run snapshots its design
    spectra every ``diagnostics_every`` rounds (:func:`sample_diagnostics`), from
    what the policy reports of its own state and pull counts from ``chosen``.
    Returns one ``(trace, diagnostics or None)`` pair per run, in order.
    """
    if not env.noise_std >= 0:
        raise ValueError(f"noise_std must be nonnegative, got {env.noise_std}")
    p = env.params
    T = env.contexts.T
    policy_args = dict(d1=p.d1, d2=p.d2, n_arms=p.n_arms, S=p.S, T=T, delta=delta)
    states = []
    for algo, trial in runs:
        if algo == ORACLE:
            policy = OraclePolicy(p)
        else:
            policy = make_policy(PolicyConfig.create(algo, **policy_args))
        noise = np.zeros(T)
        if env.noise_std > 0:
            noise = env.noise_std * stream(env.env_seed, trial, 0, "noise").standard_normal(T)
        trace = RegretTrace(algo, env.env_id, trial, np.empty(T), np.empty(T, dtype=np.int64))
        diag = None
        if diagnostics_every > 0:
            diag = DiagnosticsTrace(algo, env.env_id, trial, p.n_arms, p.d1, p.d2)
        states.append((policy, noise, trace, diag))
    for t in range(T):
        ctx = env.contexts.round(t)
        means = mean_rewards(p, ctx)
        best = float(np.max(means))
        for policy, noise, trace, diag in states:
            arm = policy.select_arm(ctx)
            x, z = ctx.arm(arm)
            policy.update(arm, x, z, float(means[arm] + noise[t]))
            before = trace.cum_regret[t - 1] if t else 0.0
            trace.cum_regret[t] = before + max(0.0, best - float(means[arm]))
            trace.chosen[t] = arm
            if diag is not None and (t + 1) % diagnostics_every == 0:
                tau = np.bincount(trace.chosen[: t + 1], minlength=p.n_arms)
                diag.samples.append(sample_diagnostics(policy, p, t + 1, tau))
    return [(trace, diag) for _, _, trace, diag in states]


def run_trial(
    algo: str, env: Environment, trial_index: int, **kwargs
) -> tuple[RegretTrace, DiagnosticsTrace | None]:
    """One run through one environment: :func:`run_traces` of ``[(algo, trial_index)]``."""
    return run_traces(env, [(algo, trial_index)], **kwargs)[0]


def _run_group_job(args) -> list[tuple[RegretTrace, DiagnosticsTrace | None]]:
    """Pool job: one :func:`run_traces` over a group of one environment's runs."""
    cfg, env_id, runs, delta, diagnostics_every = args
    env = synthetic_environment(cfg, env_id)
    return run_traces(env, runs, delta=delta, diagnostics_every=diagnostics_every)


def _run_synthetic_job(args) -> tuple[RegretTrace, DiagnosticsTrace | None]:
    """Unused one-run job, kept only because ``perfbench/spans.py`` looks it up at install."""
    cfg, env_id, algo, trial, delta, diagnostics_every = args
    return _run_group_job((cfg, env_id, [(algo, trial)], delta, diagnostics_every))[0]


@dataclass
class AggregateCurve:
    """Across-trial mean and standard deviation of cumulative regret."""

    algo: str
    mean: np.ndarray
    std: np.ndarray
    n_trials: int


def aggregate_traces(traces: list[RegretTrace]) -> dict[str, AggregateCurve]:
    """Mean/std per (algo, round) over trials, order-independent.

    Each algorithm's traces are sorted by (env, trial) and stacked before the
    reduction, so the result does not depend on completion order.
    """
    by_algo: dict[str, list[RegretTrace]] = {}
    for tr in traces:
        by_algo.setdefault(tr.algo, []).append(tr)
    out: dict[str, AggregateCurve] = {}
    for algo, group in sorted(by_algo.items()):
        group = sorted(group, key=lambda tr: (tr.env_id, tr.trial_id))
        stack = np.stack([tr.cum_regret for tr in group])
        out[algo] = AggregateCurve(algo, stack.mean(axis=0), stack.std(axis=0), len(group))
    return out


@dataclass
class SummaryRow:
    """One summary line; shape fields a source does not carry are None (written empty)."""

    algo: str
    n_arms: int | None
    d1: int | None
    d2: int | None
    T: int
    mean_final_regret: float
    std_final_regret: float
    n_trials: int


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    traces: list[RegretTrace]
    diagnostics: list[DiagnosticsTrace]
    curves: dict[str, AggregateCurve]
    summary: list[SummaryRow] = field(default_factory=list)


def summary_rows(
    finals: dict[str, list[float]], T: int, n_arms=None, d1=None, d2=None
) -> list[SummaryRow]:
    """One row per algorithm: mean and std of its trials' final regrets; shapes may be None."""
    return [
        SummaryRow(algo, n_arms, d1, d2, T, float(np.mean(v)), float(np.std(v)), len(v))
        for algo, v in sorted(finals.items())
    ]


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run every (K, environment, algorithm, trial) combination of a spec.

    Setting 3 sweeps the K grid; any other spec has the one K ``n_arms``.
    The runs of each (K, environment) are dealt round-robin into
    ``min(len(runs), threads)`` groups, each one job running one
    :func:`run_traces`: the jobs stay nearly equal whatever ``n_envs`` is,
    and each environment's contexts are drawn at most ``threads`` times.
    All jobs, of every K, run on one pool.  The traces come K by K, each K's
    sorted by (algo, env, trial), and the summary has one row per
    (algorithm, K).  ``curves`` holds each algorithm's mean regret curve for
    a single K; a sweep returns none, since an algorithm's traces of
    different K values are not trials of one experiment.
    """
    ks = spec.k_grid if spec.setting == 3 and spec.k_grid else (spec.n_arms,)
    runs = [(algo, trial) for algo in spec.algos for trial in range(spec.n_trials)]
    groups = min(len(runs), spec.threads)
    jobs = []
    for k in ks:
        for env_idx in range(spec.n_envs):
            cfg = SyntheticEnvConfig(
                d1=spec.d1,
                d2=spec.d2,
                n_arms=k,
                T=spec.T,
                noise_std=spec.noise_std,
                S=spec.S,
                env_seed=derive_seed(spec.base_seed, env_idx),
            )
            for g in range(groups):
                jobs.append((cfg, env_idx, runs[g::groups], spec.delta, spec.diagnostics_every))

    if spec.threads > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

        with ProcessPoolExecutor(max_workers=spec.threads) as pool:
            results = list(pool.map(_run_group_job, jobs))
    else:
        results = [_run_group_job(job) for job in jobs]

    by_run = attrgetter("algo", "env_id", "trial_id")
    traces: list[RegretTrace] = []
    diagnostics: list[DiagnosticsTrace] = []
    summary: list[SummaryRow] = []
    per_k = len(jobs) // len(ks)
    for i, k in enumerate(ks):
        pairs = [pair for group in results[i * per_k : (i + 1) * per_k] for pair in group]
        k_traces = sorted((trace for trace, _ in pairs), key=by_run)
        traces.extend(k_traces)
        diagnostics.extend(sorted((diag for _, diag in pairs if diag is not None), key=by_run))
        finals: dict[str, list[float]] = {}
        for tr in k_traces:
            finals.setdefault(tr.algo, []).append(tr.final_regret)
        summary.extend(summary_rows(finals, spec.T, k, spec.d1, spec.d2))
    curves = aggregate_traces(traces) if len(ks) == 1 else {}
    return ExperimentResult(spec, traces, diagnostics, curves, summary)


def _fmt(x) -> str:
    """Serialize a float with 17 significant digits (round-trip exact)."""
    return format(float(x), ".17g")


def write_regret_csv(path, traces: list[RegretTrace], stride: int = 1) -> None:
    """Write per-round cumulative regret, thinned by ``stride`` if > 1.

    The final round is always included so summaries can be rebuilt from the
    file.
    """
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("algo,env_id,trial_id,round,cum_regret,chosen_arm\n")
        for tr in sorted(traces, key=lambda tr: (tr.algo, tr.env_id, tr.trial_id)):
            T = len(tr.cum_regret)
            rounds = list(range(stride - 1, T, stride))
            if rounds and rounds[-1] != T - 1:
                rounds.append(T - 1)
            for t in rounds:
                fh.write(
                    f"{tr.algo},{tr.env_id},{tr.trial_id},{t + 1},"
                    f"{_fmt(tr.cum_regret[t])},{int(tr.chosen[t])}\n"
                )


def write_summary_csv(path, rows: list[SummaryRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("algo,K,d1,d2,T,mean_final_regret,std_final_regret,n_trials\n")
        for row in sorted(rows, key=lambda r: (r.algo, r.n_arms or 0)):
            k, d1, d2 = ("" if v is None else v for v in (row.n_arms, row.d1, row.d2))
            fh.write(
                f"{row.algo},{k},{d1},{d2},{row.T},"
                f"{_fmt(row.mean_final_regret)},{_fmt(row.std_final_regret)},{row.n_trials}\n"
            )


def write_relative_csv(path, curves: dict[str, AggregateCurve]) -> None:
    """Write each algorithm's mean cumulative regret per round, and its excess over the lowest."""
    best = np.min(np.stack([c.mean for c in curves.values()]), axis=0)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("algo,round,mean_cum_regret,regret_minus_best\n")
        for algo in sorted(curves):
            mean = curves[algo].mean
            for t in range(len(mean)):
                fh.write(f"{algo},{t + 1},{_fmt(mean[t])},{_fmt(mean[t] - best[t])}\n")


def write_diagnostics_csv(path, diagnostics: list[DiagnosticsTrace]) -> None:
    header = (
        "algo,env_id,trial_id,round,lambda_min_V,min_over_arms_lambda_min_W,"
        "max_over_arms_sigma_max_B_over_sqrt_tau,sandwich_min,sandwich_max,"
        "conf_residual,conf_gamma\n"
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        for diag in sorted(diagnostics, key=lambda d: (d.algo, d.env_id, d.trial_id)):
            for s in diag.samples:
                min_w = float(np.min(s.lambda_min_W))
                pulled = s.tau > 0
                if np.any(pulled):
                    ratio = float(
                        np.max(s.sigma_max_B[pulled] / np.sqrt(s.tau[pulled]))
                    )
                else:
                    ratio = math.nan
                fh.write(
                    f"{diag.algo},{diag.env_id},{diag.trial_id},{s.round_index},"
                    f"{_fmt(s.lambda_min_V)},{_fmt(min_w)},{_fmt(ratio)},"
                    f"{_fmt(s.sandwich_min)},{_fmt(s.sandwich_max)},"
                    f"{_fmt(s.conf_residual)},{_fmt(s.conf_gamma)}\n"
                )
