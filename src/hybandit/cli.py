"""Command-line front end: environment generation, runs, diagnostics, replay.

Commands
--------
    hybandit gen-env   --config cfg.json --out env.json
    hybandit run       [--config cfg.json] [--setting N] [--algos a,b] ...
    hybandit diagnose  [--config cfg.json] ...
    hybandit replay    --log file.jsonl [--train-n N] [--T rounds] ...
    hybandit summarize --regret regret.csv [--out-dir DIR]

Option precedence is flags > config file > defaults.  Output files land in
``--out-dir`` (or ``$HYBANDIT_OUT_DIR``, or the working directory).  Runs are
idempotent: identical configs and seeds give byte-identical output files.

Exit codes: 0 success, 1 runtime failure, 2 usage, config or input error (a
bad replay log or regret CSV).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import harness
from .diagnostics import theory_constants, unit_ball_diversity, validate_assumption
from .envs import SyntheticEnvConfig, dump_environment
from .harness import (
    Environment,
    ExperimentSpec,
    experiment_spec,
    run_experiment,
    write_diagnostics_csv,
    write_regret_csv,
    write_summary_csv,
)
from .policies import ALGORITHMS, ORACLE
from .replay import (
    ReplayContextStream,
    ReplayLogError,
    parse_replay_log,
    semi_synthetic_environment,
)
from .rng import derive_seed


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


_TOP_KEYS = {
    "setting",
    "algos",
    "n_envs",
    "n_trials",
    "k_grid",
    "d1",
    "d2",
    "K",
    "T",
    "S",
    "noise_std",
    "delta",
    "seed",
    "scale",
    "threads",
    "diagnostics_every",
    "trace_stride",
    "out_dir",
    "rho",
    "replay",
}
_REPLAY_KEYS = {"log", "train_n", "noise_std", "ridge"}


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    replay = doc.get("replay", {})
    if replay:
        if not isinstance(replay, dict):
            raise ConfigError("'replay' must be an object")
        bad = set(replay) - _REPLAY_KEYS
        if bad:
            raise ConfigError(f"unknown replay config keys: {sorted(bad)}")
    return doc


def _parse_algos(text: str) -> tuple[str, ...]:
    names = tuple(a.strip().lower() for a in text.split(",") if a.strip())
    for name in names:
        if name not in (*ALGORITHMS, ORACLE):
            raise ConfigError(f"unknown algorithm {name!r}")
    if not names:
        raise ConfigError("no algorithms given")
    return names


def _pick(args, cfg: dict, flag: str, key: str, default):
    val = getattr(args, flag, None)
    if val is not None:
        return val
    if key in cfg and cfg[key] is not None:
        return cfg[key]
    return default


def _out_dir(args, cfg: dict) -> Path:
    out = _pick(args, cfg, "out_dir", "out_dir", None)
    if out is None:
        out = os.environ.get("HYBANDIT_OUT_DIR", ".")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_spec(args, cfg: dict, *, diagnostics_default: int = 0) -> ExperimentSpec:
    setting = _pick(args, cfg, "setting", "setting", "custom")
    if isinstance(setting, str) and setting.isdigit():
        setting = int(setting)
    algos = _pick(args, cfg, "algos", "algos", ("hylinucb", "linucb", "dislinucb"))
    if isinstance(algos, str):
        algos = _parse_algos(algos)
    k_grid = _pick(args, cfg, "k_grid", "k_grid", ())
    if isinstance(k_grid, str):
        k_grid = tuple(int(k) for k in k_grid.split(",") if k.strip())
    try:
        spec = experiment_spec(
            setting,
            algos=tuple(algos),
            n_envs=int(_pick(args, cfg, "n_envs", "n_envs", 5)),
            n_trials=int(_pick(args, cfg, "n_trials", "n_trials", 5)),
            scale=float(_pick(args, cfg, "scale", "scale", 1.0)),
            k_grid=k_grid,
            base_seed=int(_pick(args, cfg, "seed", "seed", 0)),
            noise_std=float(_pick(args, cfg, "noise_std", "noise_std", 0.1)),
            S=float(_pick(args, cfg, "S", "S", 1.0)),
            delta=float(_pick(args, cfg, "delta", "delta", 0.1)),
            diagnostics_every=int(
                _pick(args, cfg, "diagnostics_every", "diagnostics_every", diagnostics_default)
            ),
            threads=int(_pick(args, cfg, "threads", "threads", 1)),
            d1=_pick(args, cfg, "d1", "d1", None),
            d2=_pick(args, cfg, "d2", "d2", None),
            n_arms=_pick(args, cfg, "K", "K", None),
            T=_pick(args, cfg, "T", "T", None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if spec.T < 2:
        raise ConfigError(f"horizon T must be at least 2, got {spec.T}")
    return spec


def _dim(args, cfg: dict, key: str, shape_name: str) -> int:
    val = _pick(args, cfg, key, key, None)
    if val is None:
        val = _setting_dim(args, cfg, shape_name)
    return int(val)


def cmd_gen_env(args) -> int:
    cfg = load_config(args.config)
    try:
        env_cfg = SyntheticEnvConfig(
            d1=_dim(args, cfg, "d1", "d1"),
            d2=_dim(args, cfg, "d2", "d2"),
            n_arms=_dim(args, cfg, "K", "n_arms"),
            T=_dim(args, cfg, "T", "T"),
            noise_std=float(_pick(args, cfg, "noise_std", "noise_std", 0.1)),
            S=float(_pick(args, cfg, "S", "S", 1.0)),
            env_seed=int(_pick(args, cfg, "seed", "seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = args.out or str(_out_dir(args, cfg) / "environment.json")
    dump_environment(env_cfg, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def _setting_dim(args, cfg: dict, name: str):
    setting = _pick(args, cfg, "setting", "setting", None)
    if isinstance(setting, str) and setting.isdigit():
        setting = int(setting)
    shape = harness.SETTING_SHAPES.get(setting)
    if shape is None or shape.get(name) is None:
        raise ConfigError(f"{name} must be given (directly or via --setting)")
    return shape[name]


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    spec = _build_spec(args, cfg)
    out = _out_dir(args, cfg)
    stride = int(_pick(args, cfg, "trace_stride", "trace_stride", 1))
    print(
        f"running setting={spec.setting} algos={','.join(spec.algos)} "
        f"d1={spec.d1} d2={spec.d2} K={spec.n_arms} T={spec.T} "
        f"envs={spec.n_envs} trials={spec.n_trials}",
        file=sys.stderr,
    )
    result = run_experiment(spec)
    write_regret_csv(out / "regret.csv", result.traces, stride=stride)
    write_summary_csv(out / "summary.csv", result.summary)
    if result.diagnostics:
        write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)
    print(f"wrote {out / 'regret.csv'} and {out / 'summary.csv'}", file=sys.stderr)
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config)
    spec = _build_spec(args, cfg, diagnostics_default=100)
    if spec.diagnostics_every < 1:
        raise ConfigError("diagnostics_every must be positive for diagnose")
    out = _out_dir(args, cfg)
    rho = _pick(args, cfg, "rho", "rho", None)
    rho = float(rho) if rho is not None else unit_ball_diversity(spec.d1, spec.d2)
    constants = theory_constants(
        rho, spec.d1, spec.d2, spec.n_arms, spec.T, spec.delta, spec.S
    )
    result = run_experiment(spec)
    write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)
    write_regret_csv(out / "regret.csv", result.traces, stride=max(1, spec.T // 200))

    print(f"diversity constant rho = {rho:.6g}")
    print(f"T_m = {constants.T_m:.6g}, T_o = {constants.T_o:.6g}, horizon T = {spec.T}")
    print(f"horizon covers T_o: {constants.horizon_covers_T_o}")
    for algo, gamma in sorted(constants.gamma.items()):
        print(f"gamma[{algo}] = {gamma:.6g}")
    by_algo: dict[str, list] = {}
    for diag in result.diagnostics:
        by_algo.setdefault(diag.algo, []).append(diag)
    for algo in sorted(by_algo):
        reports = [validate_assumption(diag, rho, spec.delta) for diag in by_algo[algo]]
        v_slopes = [r.v_slope for r in reports if not math.isnan(r.v_slope)]
        w_slopes = [r.w_slope for r in reports if not math.isnan(r.w_slope)]
        flags = sum(not (r.v_slope_ok and r.w_slope_ok and r.b_norm_ok) for r in reports)
        sandwich_lo, sandwich_hi = math.inf, -math.inf
        conf_viol = 0
        conf_total = 0
        for diag in by_algo[algo]:
            for s in diag.samples:
                if not math.isnan(s.sandwich_min):
                    sandwich_lo = min(sandwich_lo, s.sandwich_min)
                    sandwich_hi = max(sandwich_hi, s.sandwich_max)
                if not math.isnan(s.conf_residual):
                    conf_total += 1
                    conf_viol += int(s.conf_residual > s.conf_gamma)
        print(f"[{algo}]")
        if v_slopes:
            print(
                f"  lambda_min(V) slope mean {np.mean(v_slopes):.6g} "
                f"(expected about {rho:.6g})"
            )
        if w_slopes:
            print(f"  lambda_min(W) slope mean {np.mean(w_slopes):.6g}")
        print(
            f"  max sigma_max(B)/sqrt(tau) {np.max([r.b_ratio_max for r in reports]):.6g} "
            f"(bound {reports[0].b_ratio_bound:.6g})"
        )
        if math.isfinite(sandwich_lo):
            print(f"  sandwich spectrum range [{sandwich_lo:.6g}, {sandwich_hi:.6g}]")
        if conf_total:
            print(f"  confidence violations: {conf_viol}/{conf_total} samples")
        print(f"  trials with assumption flags: {flags}/{len(by_algo[algo])}")
    print(f"wrote {out / 'diagnostics.csv'}", file=sys.stderr)
    return 0


def _checked(key: str, value, expected: str, ok):
    """``value`` if it is a finite JSON number (int or float, not bool) that passes ``ok``."""
    finite = type(value) is int or (type(value) is float and math.isfinite(value))
    if not (finite and ok(value)):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")
    return value


def cmd_replay(args) -> int:
    cfg = load_config(args.config)
    rcfg = cfg.get("replay", {})
    log_path = args.log or rcfg.get("log")
    if not log_path:
        raise ConfigError("replay needs --log or a 'replay.log' config entry")
    train_n = _checked(
        "train_n",
        args.train_n if args.train_n is not None else rcfg.get("train_n", 1000),
        "an integer >= 1",
        lambda n: type(n) is int and n >= 1,
    )
    ridge = _checked(
        "replay.ridge", rcfg.get("ridge", 1e-6), "a positive finite number", lambda r: r > 0
    )
    noise_std = _checked(
        "noise_std",
        args.noise_std if args.noise_std is not None else rcfg.get("noise_std", 0.01),
        "a finite number >= 0",
        lambda s: s >= 0,
    )
    algos = _pick(args, cfg, "algos", "algos", ("hylinucb", "linucb", "dislinucb"))
    if isinstance(algos, str):
        algos = _parse_algos(algos)
    n_trials = _checked(
        "n_trials",
        _pick(args, cfg, "n_trials", "n_trials", 1),
        "an integer >= 1",
        lambda n: type(n) is int and n >= 1,
    )
    delta = _checked(
        "delta", _pick(args, cfg, "delta", "delta", 0.1), "a number in (0, 1)", lambda d: 0 < d < 1
    )
    seed = _checked(
        "seed", _pick(args, cfg, "seed", "seed", 0), "an integer", lambda n: type(n) is int
    )
    out = _out_dir(args, cfg)

    horizon = _pick(args, cfg, "T", "T", None)
    if horizon is not None:
        _checked("horizon T", horizon, "an integer >= 2", lambda n: type(n) is int and n >= 2)
    records = list(parse_replay_log(log_path))
    learned, stream_ctx = semi_synthetic_environment(records, train_n, ridge=float(ridge))
    if horizon is not None:
        if horizon > stream_ctx.T:
            raise ConfigError(
                f"T={horizon} exceeds the {stream_ctx.T} rounds the log has left "
                f"after train_n={train_n}"
            )
        stream_ctx = ReplayContextStream(
            stream_ctx.records[:horizon], stream_ctx.user_scale, stream_ctx.arm_scale
        )
    env = Environment(0, derive_seed(seed, 0), learned.params, stream_ctx, float(noise_std))
    print(
        f"replaying {stream_ctx.T} rounds (trained on {train_n} records, "
        f"fit residual {learned.fit_residual:.6g})",
        file=sys.stderr,
    )
    runs = [(algo, trial) for algo in sorted(algos) for trial in range(n_trials)]
    traces = [trace for trace, _ in harness.run_traces(env, runs, delta=delta)]
    write_regret_csv(out / "replay_regret.csv", traces, stride=1)
    curves = harness.aggregate_traces(traces)
    best = np.min(np.stack([c.mean for c in curves.values()]), axis=0)
    with open(out / "replay_relative.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("algo,round,mean_cum_regret,regret_minus_best\n")
        for algo in sorted(curves):
            curve = curves[algo]
            for t in range(len(curve.mean)):
                fh.write(
                    f"{algo},{t + 1},{harness._fmt(curve.mean[t])},"
                    f"{harness._fmt(curve.mean[t] - best[t])}\n"
                )
    print(f"wrote {out / 'replay_regret.csv'}", file=sys.stderr)
    return 0


def cmd_summarize(args) -> int:
    path = Path(args.regret)
    if not path.exists():
        raise ConfigError(f"regret file not found: {path}")
    finals: dict[tuple[str, int, int], float] = {}
    rounds: dict[tuple[str, int, int], int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:4] != ["algo", "env_id", "trial_id", "round"]:
            raise ConfigError("unrecognized regret CSV header")
        for lineno, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 6:
                raise ConfigError(f"{path} line {lineno}: expected 6 fields, got {len(fields)}")
            algo, env_id, trial_id, rnd, cum, _ = fields
            try:
                key = (algo, int(env_id), int(trial_id))
                rnd, cum = int(rnd), float(cum)
            except ValueError as exc:
                raise ConfigError(f"{path} line {lineno}: {exc}") from exc
            if rnd >= rounds.get(key, -1):
                rounds[key] = rnd
                finals[key] = cum
    by_algo: dict[str, list[float]] = {}
    t_max = max(rounds.values()) if rounds else 0
    for (algo, _, _), val in sorted(finals.items()):
        by_algo.setdefault(algo, []).append(val)
    out = _out_dir(args, {})
    # a regret CSV does not carry K, d1 or d2, so those fields stay empty
    write_summary_csv(out / "summary.csv", harness.summary_rows(by_algo, t_max))
    print(f"wrote {out / 'summary.csv'}", file=sys.stderr)
    return 0


# Every flag of the CLI.  Each command declares only the flags it reads, so a
# flag it would ignore is a usage error; config keys stay shared instead, so
# that one config file can serve several commands.
_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--setting": dict(help="named setting: 1, 2 or 3"),
    "--algos": dict(help="comma-separated algorithm names"),
    "--k-grid": dict(help="comma-separated K values (setting 3)"),
    "--scale": dict(type=float, help="scale factor for T and trial counts"),
    "--seed": dict(type=int, help="base seed"),
    "--threads": dict(type=int, help="parallel trial workers"),
    "--out-dir": dict(help="output directory"),
    "--rho": dict(type=float, help="diversity constant override"),
    "--d1": dict(type=int, help="shared feature dimension"),
    "--d2": dict(type=int, help="arm feature dimension"),
    "--K": dict(type=int, help="number of arms"),
    "--T": dict(type=int, help="horizon"),
    "--n-envs": dict(type=int, help="number of environments"),
    "--n-trials": dict(type=int, help="trials per environment"),
    "--noise-std": dict(type=float, help="reward noise std"),
    "--delta": dict(type=float, help="failure probability"),
    "--diagnostics-every": dict(type=int, help="diagnostics sampling stride in rounds"),
    "--trace-stride": dict(type=int, help="regret CSV thinning stride"),
    "--out": dict(help="output JSON path"),
    "--log": dict(help="replay log path (line-delimited JSON)"),
    "--train-n": dict(type=int, help="training prefix size"),
    "--regret": dict(required=True, help="regret CSV to summarize"),
}

# The flags of the experiment spec (see ``_build_spec``).
_SPEC_FLAGS = (
    "--config", "--setting", "--algos", "--k-grid", "--scale", "--seed", "--threads",
    "--out-dir", "--d1", "--d2", "--K", "--T", "--n-envs", "--n-trials", "--noise-std",
    "--delta", "--diagnostics-every",
)

# (name, help, handler, flags)
_COMMANDS = (
    (
        "gen-env",
        "dump one synthetic environment to JSON",
        cmd_gen_env,
        ("--config", "--setting", "--d1", "--d2", "--K", "--T", "--noise-std", "--seed",
         "--out-dir", "--out"),
    ),
    ("run", "run a regret experiment and write CSVs", cmd_run, (*_SPEC_FLAGS, "--trace-stride")),
    ("diagnose", "run with spectral diagnostics and report", cmd_diagnose, (*_SPEC_FLAGS, "--rho")),
    (
        "replay",
        "semi-synthetic run from a replay log",
        cmd_replay,
        ("--config", "--log", "--train-n", "--T", "--algos", "--n-trials", "--noise-std",
         "--delta", "--seed", "--out-dir"),
    ),
    ("summarize", "summarize a regret CSV", cmd_summarize, ("--regret", "--out-dir")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybandit",
        description="Hybrid-reward linear contextual bandit simulations and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ReplayLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
