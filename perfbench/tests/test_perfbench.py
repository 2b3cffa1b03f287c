"""Tests of the benchmark itself, at shapes far smaller than its workloads.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from check import check_outputs
from layers import SpanStats, per_layer
from spans import COUNT
from workloads import WORKLOADS, write_replay_log

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
SEED = 11

TINY = {
    "shared_heavy": replace(WORKLOADS["shared_heavy"], rounds=15),
    "many_arms": replace(WORKLOADS["many_arms"], rounds=15),
    "diagnose_spectral": replace(WORKLOADS["diagnose_spectral"], rounds=200),
    "replay_semi_synthetic": replace(WORKLOADS["replay_semi_synthetic"], rounds=15, train_n=120),
}


def _run_cli(w, out: Path, spans: Path | None = None) -> Path | None:
    """Run one CLI command of ``w`` into ``out``; return the replay log, if any."""
    log = None
    out.parent.mkdir(parents=True, exist_ok=True)
    if w.command == "replay":
        log = out.parent / "clicks.jsonl"
        write_replay_log(w, SEED, log, out.parent / "clicks_setup.jsonl")
    args = w.argv(SEED, out, log=log)
    if spans is None:
        cmd = [sys.executable, "-m", "hybandit.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans), "--", *args]
    subprocess.run(cmd, env=ENV, cwd=ROOT, check=True, capture_output=True, timeout=120)
    return log


def _counts(w, tmp: Path) -> dict:
    spans_path = tmp / "spans.json"
    _run_cli(w, tmp / "out", spans_path)
    spans = json.loads(spans_path.read_text())["spans"]
    metrics, _ = per_layer(SpanStats(spans))
    counts = {k: v for k, (v, _) in metrics.items() if k.endswith((".calls", ".records", ".bytes"))}
    counts["spans"] = len(spans)
    counts["work"] = sum(s[COUNT] for s in spans)
    return counts


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat(name, tmp_path):
    w = TINY[name]
    first = _counts(w, tmp_path / "a")
    second = _counts(w, tmp_path / "b")
    assert first == second
    assert first["harness.write_csv.bytes"] > 0
    if w.command != "replay":
        assert first["envs.context_round.calls"] == w.work


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    w = TINY["shared_heavy"]
    out = tmp_path_factory.mktemp("run") / "out"
    _run_cli(w, out)
    return w, out


def _corrupt(path: Path, row: int, col: int, edit) -> None:
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = edit(cells[col])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_check_accepts_clean_outputs(run_outputs):
    w, out = run_outputs
    res = check_outputs(w, SEED, out)
    assert res.ok, res.problems
    assert len(res.keys) == w.n_traces


@pytest.mark.parametrize(
    "file, row, col, edit, what",
    [
        ("regret.csv", 5, 4, lambda v: "-1.0", "non-decreasing"),
        ("regret.csv", 15, 4, lambda v: repr(float(v) + 1e-6), "recomputed"),
        ("regret.csv", 7, 5, lambda v: str((int(v) + 1) % 25), "recomputed"),
        ("regret.csv", 9, 3, lambda v: "99", "rows"),
        ("summary.csv", 1, 5, lambda v: repr(float(v) * (1 + 1e-6)), "mean/std"),
        ("summary.csv", 2, 7, lambda v: "3", "shape/count"),
    ],
)
def test_check_rejects_corrupted_outputs(run_outputs, tmp_path, file, row, col, edit, what):
    w, out = run_outputs
    bad = tmp_path / "out"
    shutil.copytree(out, bad)
    _corrupt(bad / file, row, col, edit)
    res = check_outputs(w, SEED, bad)
    assert not res.ok
    assert res.failed
    assert any(what in p for p in res.problems), res.problems


def test_check_rejects_missing_sandwich(tmp_path):
    w = TINY["diagnose_spectral"]
    out = tmp_path / "out"
    _run_cli(w, out)
    assert check_outputs(w, SEED, out).ok
    lines = (out / "diagnostics.csv").read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("hylinucb,"))
    _corrupt(out / "diagnostics.csv", row, 7, lambda v: "nan")
    res = check_outputs(w, SEED, out)
    assert res.failed == {("hylinucb", 0, 0)}


def test_check_replay_recomputes_from_learned_model(tmp_path):
    w = TINY["replay_semi_synthetic"]
    out = tmp_path / "out"
    log = _run_cli(w, out)
    assert check_outputs(w, SEED, out, log).ok
    _corrupt(out / "replay_relative.csv", 3, 2, lambda v: repr(float(v) + 1e-3))
    assert not check_outputs(w, SEED, out, log).ok


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many_arms", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
