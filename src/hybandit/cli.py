"""Command-line front end: environment generation, runs, diagnostics, replay.

Commands
--------
    hybandit gen-env   --config cfg.json --out env.json
    hybandit run       [--config cfg.json] [--setting N] [--algos a,b] ...
    hybandit diagnose  [--config cfg.json] ...
    hybandit replay    --log file.jsonl [--train-n N] [--T rounds] ...
    hybandit summarize --regret regret.csv [--out-dir DIR]

Every input key is one entry of ``KEYS``: its config name, flag, JSON type,
range and the default of each command that reads it.  A command resolves
every key it reads (flag > config file > default) and checks it against the
table before any work starts.  Output files land in ``--out-dir`` (or
``$HYBANDIT_OUT_DIR``, or the working directory).  Runs are idempotent:
identical configs and seeds give byte-identical output files.

Exit codes: 0 success, 1 runtime failure, 2 usage, config or input error (a
bad replay log or regret CSV).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
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
from .replay import (
    ReplayContextStream,
    ReplayLogError,
    parse_replay_log,
    semi_synthetic_environment,
)
from .rng import derive_seed


class ConfigError(Exception):
    """Bad configuration or usage; maps to exit code 2."""


def _algo_names(text: str) -> tuple[str, ...]:
    return tuple(a.strip().lower() for a in text.split(",") if a.strip())


def _algos_ok(text: str) -> bool:
    names = _algo_names(text)
    return bool(names) and len(set(names)) == len(names) and set(names) <= set(harness.VALID_ALGOS)


def _json_list(text: str):
    """Flag type of an array key: ``10,25`` is read as the JSON array ``[10, 25]``.

    Text that does not parse stays text, which the key's type check rejects.
    """
    try:
        return json.loads(f"[{text}]")
    except json.JSONDecodeError:
        return text


def _setting_flag(text: str):
    """Flag type of ``setting``: ``1`` is the named setting 1; other text stays text."""
    return {str(n): n for n in harness.SETTING_SHAPES}.get(text, text)


# JSON type -> (check of a config value, argparse type of its flag).  A bool is
# not an integer, and a number is finite.
_TYPES = {
    "integer": (lambda v: type(v) is int, int),
    "number": (lambda v: type(v) in (int, float) and math.isfinite(v), float),
    "string": (lambda v: type(v) is str, str),
    "integer or string": (lambda v: type(v) in (int, str), _setting_flag),
    "integer array": (lambda v: type(v) is list and all(type(k) is int for k in v), _json_list),
}


@dataclass(frozen=True)
class Key:
    """One input key.

    ``defaults`` maps each command that reads the key to its default; None
    there means the command derives the value (from the setting's shape, the
    log's length, ``$HYBANDIT_OUT_DIR``), or that the key is required.
    """

    name: str  # config key; "replay.<name>" sits in the config's "replay" object
    flag: str | None
    kind: str  # JSON type, a key of _TYPES
    range: str  # the allowed range, in words
    ok: Callable[[object], bool]  # range check of a value of the right type
    defaults: dict
    help: str = ""

    def check(self, value):
        """``value`` if it has the key's type and range, else ``ConfigError``."""
        if not (_TYPES[self.kind][0](value) and self.ok(value)):
            article = "an" if self.kind[0] in "aeiou" else "a"
            expected = " ".join(filter(None, (article, self.kind, self.range)))
            raise ConfigError(f"{self.name} must be {expected}, got {value!r}")
        return value


# Commands that read the same keys: the experiment spec, and the problem's shape.
_SPEC = ("run", "diagnose")
_SHAPED = ("gen-env", *_SPEC)


def _any(value) -> bool:
    return True


KEYS = (
    Key("setting", "--setting", "integer or string", '1, 2, 3 or "custom"',
        lambda v: v in (*harness.SETTING_SHAPES, "custom"),
        dict.fromkeys(_SHAPED, "custom"), "named setting: 1, 2 or 3"),
    Key("algos", "--algos", "string",
        "of distinct comma-separated names from " + ", ".join(harness.VALID_ALGOS),
        _algos_ok,
        dict.fromkeys((*_SPEC, "replay"), "hylinucb,linucb,dislinucb"),
        "comma-separated algorithm names"),
    Key("n_envs", "--n-envs", "integer", ">= 1", lambda v: v >= 1,
        dict.fromkeys(_SPEC, 5), "number of environments"),
    Key("n_trials", "--n-trials", "integer", ">= 1", lambda v: v >= 1,
        {"run": 5, "diagnose": 5, "replay": 1}, "trials per environment"),
    Key("k_grid", "--k-grid", "integer array", "of K values >= 1, nonempty",
        lambda v: bool(v) and min(v) >= 1,
        dict.fromkeys(_SPEC, None), "comma-separated K values (setting 3)"),
    Key("d1", "--d1", "integer", ">= 1", lambda v: v >= 1,
        dict.fromkeys(_SHAPED, None), "shared feature dimension"),
    Key("d2", "--d2", "integer", ">= 1", lambda v: v >= 1,
        dict.fromkeys(_SHAPED, None), "arm feature dimension"),
    Key("K", "--K", "integer", ">= 1", lambda v: v >= 1,
        dict.fromkeys(_SHAPED, None), "number of arms"),
    Key("T", "--T", "integer", ">= 2", lambda v: v >= 2,
        dict.fromkeys((*_SHAPED, "replay"), None), "horizon"),
    Key("S", None, "number", "> 0", lambda v: v > 0,
        dict.fromkeys(_SHAPED, 1.0)),
    Key("noise_std", "--noise-std", "number", ">= 0", lambda v: v >= 0,
        dict.fromkeys(_SHAPED, 0.1), "reward noise std"),
    Key("delta", "--delta", "number", "in (0, 1)", lambda v: 0 < v < 1,
        dict.fromkeys((*_SPEC, "replay"), 0.1), "failure probability"),
    Key("seed", "--seed", "integer", "", _any,
        dict.fromkeys((*_SHAPED, "replay"), 0), "base seed"),
    Key("scale", "--scale", "number", "> 0", lambda v: v > 0,
        dict.fromkeys(_SPEC, 1.0), "scale factor for T and trial counts"),
    Key("threads", "--threads", "integer", ">= 1", lambda v: v >= 1,
        dict.fromkeys(_SPEC, 1), "parallel trial workers"),
    Key("diagnostics_every", "--diagnostics-every", "integer", ">= 0", lambda v: v >= 0,
        {"run": 0, "diagnose": 100}, "diagnostics sampling stride in rounds"),
    Key("trace_stride", "--trace-stride", "integer", ">= 1", lambda v: v >= 1,
        {"run": 1}, "regret CSV thinning stride"),
    Key("out_dir", "--out-dir", "string", "", _any,
        dict.fromkeys((*_SHAPED, "replay", "summarize"), None), "output directory"),
    Key("rho", "--rho", "number", "in (0, 1]", lambda v: 0 < v <= 1,
        {"diagnose": None}, "diversity constant override"),
    Key("replay.log", "--log", "string", "", _any,
        {"replay": None}, "replay log path (line-delimited JSON)"),
    Key("replay.train_n", "--train-n", "integer", ">= 1", lambda v: v >= 1,
        {"replay": 1000}, "training prefix size"),
    Key("replay.noise_std", "--noise-std", "number", ">= 0", lambda v: v >= 0,
        {"replay": 0.01}, "reward noise std"),
    Key("replay.ridge", None, "number", "> 0", lambda v: v > 0,
        {"replay": 1e-6}),
)


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
    unknown = set(doc) - {key.name.partition(".")[0] for key in KEYS}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    replay = doc.get("replay", {})
    if not isinstance(replay, dict):
        raise ConfigError("'replay' must be an object")
    replay_keys = {key.name.partition(".")[2] for key in KEYS if key.name.startswith("replay.")}
    bad = set(replay) - replay_keys
    if bad:
        raise ConfigError(f"unknown replay config keys: {sorted(bad)}")
    return doc


def resolve(command: str, args, cfg: dict) -> dict:
    """Every key ``command`` reads, by name: its flag, else its config value, else its default.

    A given value (a JSON null counts as not given) must have the key's type
    and range, or ``ConfigError`` is raised.
    """
    values = {}
    for key in KEYS:
        if command not in key.defaults:
            continue
        section, _, name = key.name.rpartition(".")
        value = getattr(args, key.flag[2:].replace("-", "_")) if key.flag else None
        if value is None:
            value = cfg.get(section, {}).get(name) if section else cfg.get(name)
        values[key.name] = key.defaults[command] if value is None else key.check(value)
    return values


def _out_dir(values: dict) -> Path:
    out = values["out_dir"]
    path = Path(os.environ.get("HYBANDIT_OUT_DIR", ".") if out is None else out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _build_spec(v: dict) -> ExperimentSpec:
    if v["k_grid"] is not None and v["setting"] != 3:
        raise ConfigError(
            f"k_grid is read only with setting 3, got k_grid={v['k_grid']} "
            f"with setting {v['setting']!r}"
        )
    if v["K"] is not None and v["setting"] == 3:
        raise ConfigError(f"setting 3 takes its K values from k_grid, got K={v['K']}")
    try:
        spec = experiment_spec(
            v["setting"],
            algos=_algo_names(v["algos"]),
            n_envs=v["n_envs"],
            n_trials=v["n_trials"],
            scale=v["scale"],
            k_grid=v["k_grid"] or (),
            base_seed=v["seed"],
            noise_std=v["noise_std"],
            S=v["S"],
            delta=v["delta"],
            diagnostics_every=v["diagnostics_every"],
            threads=v["threads"],
            d1=v["d1"],
            d2=v["d2"],
            n_arms=v["K"],
            T=v["T"],
        )
    except ValueError as exc:  # a dimension neither given nor set by the setting
        raise ConfigError(str(exc)) from exc
    if spec.T < 2:
        raise ConfigError(f"horizon T must be at least 2 after scaling, got {spec.T}")
    return spec


def cmd_gen_env(args) -> int:
    v = resolve("gen-env", args, load_config(args.config))
    shape = harness.SETTING_SHAPES.get(v["setting"], {})
    dims = {}
    for key, name in (("d1", "d1"), ("d2", "d2"), ("K", "n_arms"), ("T", "T")):
        dims[name] = v[key] if v[key] is not None else shape.get(name)
        if dims[name] is None:
            raise ConfigError(f"{key} must be given (directly or via --setting)")
    env_cfg = SyntheticEnvConfig(**dims, noise_std=v["noise_std"], S=v["S"], env_seed=v["seed"])
    out = Path(args.out) if args.out else _out_dir(v) / "environment.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    dump_environment(env_cfg, out)
    print(f"wrote {out}", file=sys.stderr)
    return 0


def cmd_run(args) -> int:
    v = resolve("run", args, load_config(args.config))
    spec = _build_spec(v)
    out = _out_dir(v)
    print(
        f"running setting={spec.setting} algos={','.join(spec.algos)} "
        f"d1={spec.d1} d2={spec.d2} K={','.join(map(str, spec.k_grid or (spec.n_arms,)))} "
        f"T={spec.T} envs={spec.n_envs} trials={spec.n_trials}",
        file=sys.stderr,
    )
    result = run_experiment(spec)
    write_regret_csv(out / "regret.csv", result.traces, stride=v["trace_stride"])
    write_summary_csv(out / "summary.csv", result.summary)
    if result.diagnostics:
        write_diagnostics_csv(out / "diagnostics.csv", result.diagnostics)
    print(f"wrote {out / 'regret.csv'} and {out / 'summary.csv'}", file=sys.stderr)
    return 0


def cmd_diagnose(args) -> int:
    v = resolve("diagnose", args, load_config(args.config))
    spec = _build_spec(v)
    if len(spec.k_grid) > 1:
        raise ConfigError(
            f"diagnose reports on one K, so run one K per call (--k-grid K), "
            f"got k_grid={list(spec.k_grid)}"
        )
    if spec.diagnostics_every < 1:
        raise ConfigError("diagnostics_every must be positive for diagnose")
    if spec.T // spec.diagnostics_every < 2:
        raise ConfigError(f"diagnostics_every must be at most T/2 = {spec.T / 2:g} for diagnose, "
                          f"which needs two samples per run, got {spec.diagnostics_every}")
    rho = v["rho"] if v["rho"] is not None else unit_ball_diversity(spec.d1, spec.d2)
    constants = theory_constants(
        rho, spec.d1, spec.d2, spec.n_arms, spec.T, spec.delta, spec.S
    )
    out = _out_dir(v)
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


def cmd_replay(args) -> int:
    v = resolve("replay", args, load_config(args.config))
    if not v["replay.log"]:
        raise ConfigError("replay needs --log or a 'replay.log' config entry")
    train_n, horizon = v["replay.train_n"], v["T"]
    out = _out_dir(v)

    records = list(parse_replay_log(v["replay.log"]))
    if len(records) <= train_n:
        raise ConfigError(f"log has {len(records)} records, need more than train_n={train_n}")
    learned, stream_ctx = semi_synthetic_environment(records, train_n, ridge=v["replay.ridge"])
    if horizon is not None:
        if horizon > stream_ctx.T:
            raise ConfigError(
                f"T={horizon} exceeds the {stream_ctx.T} rounds the log has left "
                f"after train_n={train_n}"
            )
        s = stream_ctx
        stream_ctx = ReplayContextStream(
            s.users[:horizon], s.arms[:horizon], s.user_scale, s.arm_scale
        )
    env = Environment(
        0, derive_seed(v["seed"], 0), learned.params, stream_ctx, v["replay.noise_std"]
    )
    print(
        f"replaying {stream_ctx.T} rounds (trained on {train_n} records, "
        f"fit residual {learned.fit_residual:.6g})",
        file=sys.stderr,
    )
    algos = sorted(_algo_names(v["algos"]))
    runs = [(algo, trial) for algo in algos for trial in range(v["n_trials"])]
    traces = [trace for trace, _ in harness.run_traces(env, runs, delta=v["delta"])]
    write_regret_csv(out / "replay_regret.csv", traces, stride=1)
    harness.write_relative_csv(out / "replay_relative.csv", harness.aggregate_traces(traces))
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
            if key in rounds and rnd <= rounds[key]:
                raise ConfigError(
                    f"{path} line {lineno}: round {rnd} of trace algo={algo} env_id={key[1]} "
                    f"trial_id={key[2]} does not follow round {rounds[key]}; a K sweep's "
                    "regret CSV holds one trace per K, which summarize cannot tell apart"
                )
            rounds[key] = rnd
            finals[key] = cum
    by_algo: dict[str, list[float]] = {}
    t_max = max(rounds.values()) if rounds else 0
    for (algo, _, _), val in sorted(finals.items()):
        by_algo.setdefault(algo, []).append(val)
    out = _out_dir(resolve("summarize", args, {}))
    # a regret CSV does not carry K, d1 or d2, so those fields stay empty
    write_summary_csv(out / "summary.csv", harness.summary_rows(by_algo, t_max))
    print(f"wrote {out / 'summary.csv'}", file=sys.stderr)
    return 0


# The flags that name a file rather than a key.  Each command declares only the
# flags of the keys it reads, so a flag it would ignore is a usage error; config
# keys stay shared instead, so that one config file can serve several commands.
_FILE_FLAGS = {
    "--config": dict(help="JSON config file"),
    "--out": dict(help="output JSON path"),
    "--regret": dict(required=True, help="regret CSV to summarize"),
}

# (name, help, handler, file flags)
_COMMANDS = (
    ("gen-env", "dump one synthetic environment to JSON", cmd_gen_env, ("--config", "--out")),
    ("run", "run a regret experiment and write CSVs", cmd_run, ("--config",)),
    ("diagnose", "run with spectral diagnostics and report", cmd_diagnose, ("--config",)),
    ("replay", "semi-synthetic run from a replay log", cmd_replay, ("--config",)),
    ("summarize", "summarize a regret CSV", cmd_summarize, ("--regret",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybandit",
        description="Hybrid-reward linear contextual bandit simulations and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, file_flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in file_flags:
            p.add_argument(flag, **_FILE_FLAGS[flag])
        for key in KEYS:
            if key.flag and name in key.defaults:
                p.add_argument(key.flag, type=_TYPES[key.kind][1], help=key.help)
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
