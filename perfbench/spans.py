"""Span tracing of ``hybandit`` from outside the package.

``install()`` wraps the public calls of each layer (module) so every call
records a span: name, start, end, parent span, trial id and, for some
calls, a work count.  Spans are kept in memory and written out once, when
the traced command ends.  Nothing in the package is edited; the wrappers
replace the package's functions and methods in this process only.

Pool workers started by ``fork`` inherit the wrappers.  Their spans travel
back to the parent on the trial result and are merged when the parent
aggregates the traces, so a traced run keeps its process pool.

Run a traced command with ``python3 perfbench/traced_cli.py SPANS_OUT -- ARGS``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time

# (module, attribute, span name).  A name ending in "." is completed with the
# policy's algorithm, taken from the bound instance.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("rng", "stream", "rng.stream"),
    ("envs", "SyntheticContextStream.round", "envs.context_round"),
    ("envs", "hybrid_least_squares", "envs.fit"),
    ("model", "mean_rewards", "model.mean_rewards"),
    ("linalg", "BlockDesign.quad_forms_per_arm", "linalg.quad_forms"),
    ("linalg", "BlockDesign.solve_blocks", "linalg.solve_blocks"),
    ("linalg", "BlockDesign.block_update", "linalg.block_update"),
    ("linalg", "BlockDesign.sandwich_spectrum", "linalg.sandwich"),
    ("linalg", "SymPosDef.refresh", "linalg.refresh"),
    ("linalg", "sym_eigenvalues", "linalg.sym_eigenvalues"),
    ("policies", "SharedLinearUCB.select_arm", "policies.select_arm."),
    ("policies", "SharedLinearUCB.update", "policies.update."),
    ("policies", "DisjointLinearUCB.select_arm", "policies.select_arm."),
    ("policies", "DisjointLinearUCB.update", "policies.update."),
    ("diagnostics", "sample_diagnostics", "diagnostics.sample"),
    ("diagnostics", "PulledFeatureTracker.record", "diagnostics.tracker_record"),
    ("harness", "run_experiment", "harness.experiment"),
    ("harness", "run_trial", "harness.trial"),
    ("harness", "aggregate_traces", "harness.aggregate"),
    ("harness", "write_regret_csv", "harness.write_csv"),
    ("harness", "write_summary_csv", "harness.write_csv"),
    ("harness", "write_diagnostics_csv", "harness.write_csv"),
    ("replay", "parse_replay_log", "replay.parse"),
    ("replay", "ReplayContextStream.round", "replay.context_round"),
)

# Index of each field in a span record.
NAME, START, END, PARENT, TRIAL, COUNT = range(6)


class Recorder:
    """Spans of one process, in start order, plus the stack of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.trial = ""

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.trial, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[COUNT] = count
        self.stack.pop()

    def merge(self, spans: list[list]) -> None:
        """Adopt spans recorded in a pool worker under the currently open span."""
        base = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        for span in spans:
            span[PARENT] = parent if span[PARENT] < 0 else span[PARENT] + base
            self.spans.append(span)


_recorder: Recorder | None = None
_pid = -1
_original_job = None


def _count(name: str, args) -> int:
    """Work count recorded on a span: records fitted, or bytes written."""
    if name == "envs.fit":
        return len(args[0])
    if name == "harness.write_csv":
        return os.path.getsize(args[0])
    return 0


def _wrap(fn, name: str):
    per_algo = name.endswith(".")

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name + args[0].config.algo if per_algo else name
        idx = _recorder.open(span_name)
        count = 0
        try:
            out = fn(*args, **kwargs)
            count = _count(name, args)
            return out
        finally:
            _recorder.close(idx, count)

    return traced


def _wrap_trial(fn):
    @functools.wraps(fn)
    def traced(algo, env, trial_index, **kwargs):
        outer = _recorder.trial
        _recorder.trial = f"{algo}/{env.env_id}/{trial_index}"
        idx = _recorder.open("harness.trial")
        try:
            return fn(algo, env, trial_index, **kwargs)
        finally:
            _recorder.close(idx)
            _recorder.trial = outer

    return traced


def _wrap_generator(fn, name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = _recorder.open(name)
        n = 0
        try:
            for item in fn(*args, **kwargs):
                n += 1
                yield item
        finally:
            _recorder.close(idx, n)

    return traced


def _wrap_aggregate(fn):
    @functools.wraps(fn)
    def traced(traces):
        for tr in traces:
            spans = tr.__dict__.pop("_spans", None)
            if spans:
                _recorder.merge(spans)
        idx = _recorder.open("harness.aggregate")
        try:
            return fn(traces)
        finally:
            _recorder.close(idx)

    return traced


def traced_synthetic_job(args):
    """Stand-in for ``harness._run_synthetic_job`` that keeps a worker's spans.

    In the tracing process itself it just calls the job.  In a pool worker it
    records the job's spans afresh and attaches them to the returned trace.
    """
    global _recorder
    install()
    if os.getpid() == _pid:
        return _original_job(args)
    _recorder = Recorder()
    trace, diag = _original_job(args)
    trace._spans = _recorder.spans
    return trace, diag


def _rebind(package_modules, old, new) -> None:
    """Replace ``old`` by ``new`` wherever a package module imported it by name."""
    for mod in package_modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def install() -> Recorder:
    """Wrap every target once per process; return this process's recorder."""
    global _recorder, _pid, _original_job
    if _recorder is not None:
        return _recorder
    _recorder = Recorder()
    _pid = os.getpid()
    mods = [importlib.import_module(f"hybandit.{m}") for m in sorted({t[0] for t in TARGETS})]
    mods.append(importlib.import_module("hybandit"))
    for mod_name, attr, name in TARGETS:
        mod = sys.modules[f"hybandit.{mod_name}"]
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        fn = getattr(owner, fn_name)
        if name == "harness.trial":
            new = _wrap_trial(fn)
        elif name == "harness.aggregate":
            new = _wrap_aggregate(fn)
        elif name == "replay.parse":
            new = _wrap_generator(fn, name)
        else:
            new = _wrap(fn, name)
        if owner_name:
            setattr(owner, fn_name, new)
        else:
            _rebind(mods, fn, new)
    harness = sys.modules["hybandit.harness"]
    _original_job = harness._run_synthetic_job
    harness._run_synthetic_job = traced_synthetic_job
    return _recorder


def write_spans(path, spans: list[list]) -> None:
    """Write spans as JSON: field names plus one list per span."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "trial", "count"], "spans": spans}, fh)


def main(argv: list[str]) -> int:
    """``SPANS_OUT -- CLI ARGS``: run the CLI traced and write its spans."""
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_OUT -- HYBANDIT_ARGS...", file=sys.stderr)
        return 2
    recorder = install()
    from hybandit import cli

    code = cli.main(argv[2:])
    write_spans(argv[0], recorder.spans)
    return code
