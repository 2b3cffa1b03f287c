"""Correctness checks of a workload's output files.

One operation is one (algo, env, trial) trace.  A trace fails when its rows
are missing or malformed, its cumulative regret is not finite and
non-decreasing, its regret disagrees with the regret recomputed from its
chosen arms, or the summary or diagnostics rows that cover it are wrong.
Regret is recomputed only through the package's public API:
``generate_environment`` and ``mean_rewards``, or, for replay, the model
that ``semi_synthetic_environment`` learns from the same log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hybandit.envs import SyntheticEnvConfig, generate_environment
from hybandit.model import mean_rewards
from hybandit.replay import parse_replay_log, semi_synthetic_environment
from hybandit.rng import derive_seed

from workloads import Workload

REL_TOL = 1e-9
REGRET_HEADER = ["algo", "env_id", "trial_id", "round", "cum_regret", "chosen_arm"]
SUMMARY_HEADER = ["algo", "K", "d1", "d2", "T", "mean_final_regret", "std_final_regret", "n_trials"]
RELATIVE_HEADER = ["algo", "round", "mean_cum_regret", "regret_minus_best"]
SANDWICH_COLUMNS = ("sandwich_min", "sandwich_max")


@dataclass
class CheckResult:
    """Traces checked, the ones that failed, and why."""

    keys: list[tuple[str, int, int]]
    failed: set = field(default_factory=set)
    problems: list[str] = field(default_factory=list)

    def fail(self, keys, message: str) -> None:
        self.failed.update(keys)
        self.problems.append(message)

    @property
    def ok(self) -> bool:
        return not self.failed and not self.problems


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].split(",") != header:
        raise ValueError(f"{path.name}: header is not {','.join(header)}")
    return [line.split(",") for line in lines[1:]]


def _round_means(w: Workload, seed: int, log: Path | None) -> np.ndarray:
    """(T, K) mean rewards of the workload's one environment, rebuilt from the public API."""
    if w.command == "replay":
        records = list(parse_replay_log(log))
        learned, contexts = semi_synthetic_environment(records, w.train_n)
        return np.stack([mean_rewards(learned.params, contexts.round(t)) for t in range(contexts.T)])
    cfg = SyntheticEnvConfig(d1=w.d1, d2=w.d2, n_arms=w.n_arms, T=w.rounds, env_seed=derive_seed(seed, 0))
    params, contexts = generate_environment(cfg)
    return np.stack([mean_rewards(params, contexts.round(t)) for t in range(w.rounds)])


def _check_traces(w: Workload, seed: int, out_dir: Path, log: Path | None, res: CheckResult):
    """Check regret rows per trace; return each passing trace's cumulative regret."""
    name = "replay_regret.csv" if w.command == "replay" else "regret.csv"
    rows: dict[tuple, list] = {}
    for row in _read_csv(out_dir / name, REGRET_HEADER):
        if len(row) != 6:
            res.fail(res.keys, f"{name}: malformed row {row}")
            return {}
        rows.setdefault((row[0], int(row[1]), int(row[2])), []).append(row[3:])
    extra = set(rows) - set(res.keys)
    if extra:
        res.fail(res.keys, f"{name}: unexpected traces {sorted(extra)}")
    m = _round_means(w, seed, log)
    traces = {}
    for key in res.keys:
        got = rows.get(key, [])
        rounds = [int(r[0]) for r in got]
        if rounds != list(range(1, w.rounds + 1)):
            res.fail([key], f"{name}: trace {key} has {len(got)} rows, expected rounds 1..{w.rounds}")
            continue
        cum = np.array([float(r[1]) for r in got])
        chosen = np.array([int(r[2]) for r in got])
        if not np.all(np.isfinite(cum)) or np.any(np.diff(cum) < 0) or cum[0] < 0:
            res.fail([key], f"{name}: trace {key} cum_regret is not finite and non-decreasing")
            continue
        if np.any(chosen < 0) or np.any(chosen >= w.n_arms):
            res.fail([key], f"{name}: trace {key} chose an arm out of range")
            continue
        inst = np.maximum(0.0, m.max(axis=1) - m[np.arange(w.rounds), chosen])
        expect = np.cumsum(inst)
        bad = np.abs(cum - expect) > REL_TOL * np.maximum(1.0, np.abs(expect))
        if np.any(bad):
            t = int(np.argmax(bad))
            res.fail(
                [key],
                f"{name}: trace {key} regret {float(cum[t])!r} at round {t + 1} disagrees "
                f"with {float(expect[t])!r} recomputed from its chosen arms",
            )
            continue
        traces[key] = cum
    return traces


def _check_summary(w: Workload, out_dir: Path, finals: dict, res: CheckResult) -> None:
    rows = _read_csv(out_dir / "summary.csv", SUMMARY_HEADER)
    seen = set()
    for row in rows:
        algo = row[0]
        keys = [k for k in res.keys if k[0] == algo]
        seen.add(algo)
        if not keys:
            res.fail(res.keys, f"summary.csv: unexpected algo {algo!r}")
            continue
        shape = [int(v) for v in (row[1], row[2], row[3], row[4], row[7])]
        if shape != [w.n_arms, w.d1, w.d2, w.rounds, len(keys)]:
            res.fail(keys, f"summary.csv: {algo} shape/count columns {shape} are wrong")
            continue
        if any(k not in finals for k in keys):
            continue  # already failed on its regret rows
        vals = np.array([finals[k] for k in keys])
        if not (_close(float(row[5]), float(np.mean(vals))) and _close(float(row[6]), float(np.std(vals)))):
            res.fail(keys, f"summary.csv: {algo} mean/std do not match the final regret rows")
    missing = {k[0] for k in res.keys} - seen
    if missing:
        res.fail([k for k in res.keys if k[0] in missing], f"summary.csv: no row for {sorted(missing)}")


def _check_relative(w: Workload, out_dir: Path, traces: dict, res: CheckResult) -> None:
    rows = _read_csv(out_dir / "replay_relative.csv", RELATIVE_HEADER)
    by_algo: dict[str, list] = {}
    for row in rows:
        by_algo.setdefault(row[0], []).append(row)
    for algo in sorted({k[0] for k in res.keys}):
        keys = [k for k in res.keys if k[0] == algo]
        got = by_algo.get(algo, [])
        if [int(r[1]) for r in got] != list(range(1, w.rounds + 1)):
            res.fail(keys, f"replay_relative.csv: {algo} rows are not rounds 1..{w.rounds}")
            continue
        if any(k not in traces for k in keys):
            continue
        mean = np.mean([traces[k] for k in keys], axis=0)
        col = np.array([float(r[2]) for r in got])
        if np.any(np.abs(col - mean) > REL_TOL * np.maximum(1.0, np.abs(mean))):
            res.fail(keys, f"replay_relative.csv: {algo} means do not match the regret rows")


def _check_diagnostics(w: Workload, out_dir: Path, res: CheckResult) -> None:
    path = out_dir / "diagnostics.csv"
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    sandwich = [header.index(c) for c in SANDWICH_COLUMNS]
    per_trace = w.rounds // w.diagnostics_every
    by_key: dict[tuple, list] = {}
    for row in rows:
        by_key.setdefault((row[0], int(row[1]), int(row[2])), []).append(row)
    for key in res.keys:
        got = by_key.get(key, [])
        if [int(r[3]) for r in got] != [w.diagnostics_every * (i + 1) for i in range(per_trace)]:
            res.fail([key], f"diagnostics.csv: trace {key} has {len(got)} rows, expected {per_trace}")
            continue
        for row in got:
            vals = [float(v) for v in row[4:]]
            filled = [math.isfinite(v) for v in vals]
            need = [
                key[0] == "hylinucb" or (i + 4) not in sandwich for i in range(len(vals))
            ]
            if any(n and not f for n, f in zip(need, filled)):
                res.fail([key], f"diagnostics.csv: trace {key} round {row[3]} has non-finite values")
                break


def check_outputs(w: Workload, seed: int, out_dir: Path, log: Path | None = None) -> CheckResult:
    """Check every output file of one full command of workload ``w``."""
    keys = [(algo, 0, trial) for algo in sorted(w.algos) for trial in range(w.n_trials)]
    res = CheckResult(keys)
    try:
        traces = _check_traces(w, seed, out_dir, log, res)
        finals = {k: float(v[-1]) for k, v in traces.items()}
        if w.command == "run":
            _check_summary(w, out_dir, finals, res)
        elif w.command == "replay":
            _check_relative(w, out_dir, traces, res)
        if w.diagnostics_every:
            _check_diagnostics(w, out_dir, res)
    except (OSError, ValueError, IndexError) as exc:
        res.fail(keys, f"unreadable output: {exc}")
    return res
