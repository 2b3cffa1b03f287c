"""Per-layer metrics derived from the spans of one traced command.

A span's self time is its duration minus the durations of its child spans.
``p50`` is the median; ``tail`` is the highest percentile of TAIL_LADDER
with at least ten samples beyond it (the median when there are fewer than
twenty samples), reported with its percentile and sample count.

Every traced result carries every per-layer metric, so a metric of a layer
that a workload does not run reads 0.  Per-layer metrics have no bound;
only end-to-end metrics, which are judged against a relative bound, must
never be 0.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
from hybandit.policies import ALGORITHMS

from spans import COUNT, END, NAME, PARENT, START

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
NS = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


class SpanStats:
    """Durations, self times and work counts of spans, grouped by name (in ns)."""

    def __init__(self, spans: list[list]):
        child = np.zeros(len(spans), dtype=np.int64)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.dur: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, list[int]] = defaultdict(list)
        self.work: dict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            d = s[END] - s[START]
            self.dur[s[NAME]].append(d)
            self.self_ns[s[NAME]].append(d - int(child[i]))
            self.work[s[NAME]] += s[COUNT]

    def calls(self, name: str) -> int:
        return len(self.dur.get(name, ()))

    def p50(self, name: str, unit: str, self_time: bool = False) -> float:
        vals = (self.self_ns if self_time else self.dur).get(name)
        return float(np.median(vals)) * NS[unit] if vals else 0.0

    def tail(self, name: str, unit: str) -> tuple[float, str]:
        vals = self.dur.get(name)
        if not vals:
            return 0.0, "no samples"
        n = len(vals)
        pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10), 50.0)
        note = f"p{pct:g} of {n} samples, {int(n * (1.0 - pct / 100.0))} beyond"
        return float(np.percentile(vals, pct)) * NS[unit], note

    def total(self, name: str, unit: str = "s", self_time: bool = False) -> float:
        vals = (self.self_ns if self_time else self.dur).get(name, ())
        return float(sum(vals)) * NS[unit]

    def share(self, part_s: float) -> float:
        """``part_s`` as a share of the time spent in trials."""
        whole = self.total("harness.trial")
        return part_s / whole if whole else 0.0


def per_layer(stats: SpanStats) -> tuple[dict[str, tuple[float, str]], dict[str, str]]:
    """Every per-layer metric this module defines except the two that need the
    untraced run (``harness.pool.cpu_util`` and ``trace.overhead_frac``).

    Returns ``{name: (value, unit)}`` and ``{name: tail note}``.
    """
    m: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}

    def tail(metric: str, span: str, unit: str) -> None:
        value, notes[metric] = stats.tail(span, unit)
        m[metric] = (value, unit)

    m["rng.stream.calls"] = (stats.calls("rng.stream"), "count")
    ctx = "envs.context_round"
    m[f"{ctx}.calls"] = (stats.calls(ctx), "count")
    m[f"{ctx}.us_p50"] = (stats.p50(ctx, "us"), "us")
    tail(f"{ctx}.us_tail", ctx, "us")
    m[f"{ctx}.self_share"] = (stats.share(stats.total(ctx, self_time=True)), "ratio")
    m["envs.fit.s"] = (stats.total("envs.fit"), "s")
    m["envs.fit.records"] = (stats.work["envs.fit"], "count")
    m["model.mean_rewards.us_p50"] = (stats.p50("model.mean_rewards", "us"), "us")
    m["linalg.quad_forms.us_p50"] = (stats.p50("linalg.quad_forms", "us"), "us")
    tail("linalg.quad_forms.us_tail", "linalg.quad_forms", "us")
    m["linalg.solve_blocks.us_p50"] = (stats.p50("linalg.solve_blocks", "us"), "us")
    m["linalg.block_update.calls"] = (stats.calls("linalg.block_update"), "count")
    m["linalg.block_update.us_p50"] = (stats.p50("linalg.block_update", "us"), "us")
    m["linalg.refresh.calls"] = (stats.calls("linalg.refresh"), "count")
    m["linalg.sandwich.calls"] = (stats.calls("linalg.sandwich"), "count")
    m["linalg.sandwich.ms_p50"] = (stats.p50("linalg.sandwich", "ms"), "ms")
    m["linalg.sym_eigenvalues.calls"] = (stats.calls("linalg.sym_eigenvalues"), "count")
    m["linalg.sym_eigenvalues.self_s"] = (stats.total("linalg.sym_eigenvalues", self_time=True), "s")
    for algo in ALGORITHMS:
        sel = f"policies.select_arm.{algo}"
        m[f"{sel}.us_p50"] = (stats.p50(sel, "us"), "us")
        tail(f"{sel}.us_tail", sel, "us")
        m[f"{sel}.self_us_p50"] = (stats.p50(sel, "us", self_time=True), "us")
        m[f"policies.update.{algo}.us_p50"] = (stats.p50(f"policies.update.{algo}", "us"), "us")
    m["diagnostics.sample.calls"] = (stats.calls("diagnostics.sample"), "count")
    m["diagnostics.sample.ms_p50"] = (stats.p50("diagnostics.sample", "ms"), "ms")
    tail("diagnostics.sample.ms_tail", "diagnostics.sample", "ms")
    m["diagnostics.sample.share"] = (stats.share(stats.total("diagnostics.sample")), "ratio")
    m["diagnostics.tracker_record.us_p50"] = (stats.p50("diagnostics.tracker_record", "us"), "us")
    m["harness.trial.s_p50"] = (stats.p50("harness.trial", "s"), "s")
    tail("harness.trial.s_tail", "harness.trial", "s")
    m["harness.loop.self_share"] = (stats.share(stats.total("harness.trial", self_time=True)), "ratio")
    m["harness.aggregate.s"] = (stats.total("harness.aggregate"), "s")
    m["harness.write_csv.s"] = (stats.total("harness.write_csv"), "s")
    m["harness.write_csv.bytes"] = (stats.work["harness.write_csv"], "bytes")
    m["replay.parse.s"] = (stats.total("replay.parse"), "s")
    m["replay.parse.records"] = (stats.work["replay.parse"], "count")
    m["replay.context_round.us_p50"] = (stats.p50("replay.context_round", "us"), "us")
    return m, notes
