"""hybandit benchmark: one workload, measured through the public CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics.  It runs the set-up command
(the same command with the simulation cut to two rounds) and the full
command alternately, each in a fresh interpreter, until ``--seconds`` have
passed (at least three of each).  Times are built from the 95th percentile
of CPU time over the repetitions (see ``p95`` and ``wall_estimate``); peak
memory is the median.  ``--trace 1`` runs
the full command alternately untraced and traced (``traced_cli.py``) and
derives the per-layer metrics from the traced spans.

Either way, the outputs of every full command are checked (``check.py``)
and compared byte for byte.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 when every check passed, 1 when one failed, and 2 on a usage error or
when the checkout holds no ``src/hybandit``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_REPS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 120.0
# The workloads and checks import the package; main() checks that it is there.
sys.path.insert(0, str(SRC))


@dataclass
class Rep:
    """One command: exit code, wall and CPU seconds, peak resident MiB, output digest."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    digest: str = ""
    error: str = ""


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a command's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def launch(argv: list[str], env: dict, stderr_path: Path) -> Rep:
    """Run one command to completion; time it from launch until it has exited.

    CPU time is user plus system time of the command and its pool workers,
    which it reaps before exiting.  Peak RSS is the largest peak resident set
    of any one of these processes (``ru_maxrss``).
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        killer = threading.Timer(REP_TIMEOUT_S, _stop_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(proc.pid)
    return Rep(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, plus the variables that set it."""
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ}
    setting = ", ".join(f"{k}={v}" for k, v in env.items()) or "no thread variable set"
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"{fn()} threads ({setting})"
    return f"unknown ({setting})"


def machine_record() -> dict:
    """The machine and code a result was measured on."""
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for f in sorted((SRC / "hybandit").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "loadavg_at_start": os.getloadavg(),
    }


def p95(reps: list[Rep], field: str) -> float:
    """95th percentile of one field over repetitions (about the second slowest of 20).

    The machine the benchmark was tuned on is a 2-vCPU virtual machine whose
    speed flips between a fast and a slow state, about 1.7x apart, every
    ~100 ms; the share of fast time drifts between near 0 and near 1 over
    minutes.  Every statistic of repeated commands follows that drift, but a
    high percentile does least: the slow state shows up in nearly every
    window.  In 62 runs of 25 s there, the quartile spread across runs
    averaged 14 % for the 95th percentile and 19 % for the median.

    The same machine also loses whole stretches of wall time to other
    tenants: a command then waits off the CPU, and its wall time grows while
    its CPU time does not.  In one set of ten runs the 95th percentile of
    wall time spread 40-58 % between runs while that of CPU time spread 3-6 %,
    so the time metrics are built from CPU time.
    """
    return statistics.quantiles([getattr(r, field) for r in reps], n=20, method="inclusive")[18]


def median(reps: list[Rep], field: str) -> float:
    return statistics.median(getattr(r, field) for r in reps)


def wall_estimate(reps: list[Rep]) -> float:
    """Wall time of a command without the time other tenants took from it.

    The 95th percentile of CPU time, turned into wall time by the lowest
    wall-to-CPU ratio among the repetitions: the ratio of the command that
    lost least to the machine.  The ratio keeps what is the program's own,
    such as how well the pool workers overlap and time spent waiting on
    files.
    """
    return p95(reps, "cpu_s") * min(r.wall_s / r.cpu_s for r in reps)


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.work_dir = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.log = self.setup_log = None
        if workload.command == "replay":
            from workloads import write_replay_log

            self.log = self.work_dir / "clicks.jsonl"
            self.setup_log = self.work_dir / "clicks_setup.jsonl"
            write_replay_log(workload, seed, self.log, self.setup_log)
        self.n = 0
        self.setup_failures = 0
        self.setup_error = ""

    def _run(self, setup: bool = False, spans: Path | None = None) -> tuple[Rep, Path]:
        self.n += 1
        out = self.work_dir / ("setup" if setup else f"rep{self.n}")
        shutil.rmtree(out, ignore_errors=True)
        args = self.w.argv(self.seed, out, setup=setup, log=self.setup_log if setup else self.log)
        if spans is None:
            cmd = [sys.executable, "-m", "hybandit.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans), "--", *args]
        stderr = self.work_dir / f"stderr{self.n}.txt"
        rep = launch(cmd, self.env, stderr)
        if rep.code != 0:
            lines = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
            rep.error = lines[-1] if lines else ""
            if setup:
                self.setup_failures += 1
                self.setup_error = rep.error
        elif not setup:
            rep.digest = digest_dir(out)
        return rep, out

    def check(self, reps: list[tuple[Rep, Path]]) -> tuple[int, int, list[str]]:
        """Check the first successful full command and compare the others to it.

        Returns (attempted, failed) traces and the problems found.
        """
        from check import check_outputs

        per_rep = self.w.n_traces
        attempted = per_rep * (len(reps) + self.setup_failures)
        failed = per_rep * self.setup_failures
        problems = []
        if self.setup_failures:
            problems.append(f"{self.setup_failures} set-up command(s) exited nonzero: {self.setup_error}")
        good = [(r, out) for r, out in reps if r.code == 0]
        if not good:
            return attempted, attempted, problems + ["every full command exited nonzero"]
        ref, out = good[0]
        res = check_outputs(self.w, self.seed, out, self.log)
        problems += res.problems
        for rep, _ in reps:
            if rep.code == 0 and rep.digest == ref.digest:
                failed += len(res.failed)  # byte-identical outputs fail the same checks
            elif rep.code != 0:
                failed += per_rep
                problems.append(f"a full command exited with code {rep.code}: {rep.error}")
            elif rep.digest != ref.digest:
                failed += per_rep
                problems.append("a rerun wrote different output files")
        return attempted, failed, problems

    def end_to_end(self, seconds: float) -> tuple[dict, list, dict]:
        self._run(setup=True)  # warm-up: byte-compiles the package and fills the page cache
        self.setup_failures = 0
        setups, fulls = [], []
        deadline = time.perf_counter() + seconds
        while len(fulls) < MIN_REPS or time.perf_counter() < deadline:
            setups.append(self._run(setup=True)[0])
            fulls.append(self._run())
        full_reps = [r for r, _ in fulls]
        cpu = p95(full_reps, "cpu_s")
        setup = p95(setups, "cpu_s")
        metrics = {
            "wall_s": (wall_estimate(full_reps), "s"),
            "setup_s": (setup, "s"),
            "rounds_per_s": (self.w.work / (cpu - setup), "policy-rounds/s"),
            "cpu_s": (cpu, "s"),
            "peak_rss_mb": (median(full_reps, "peak_rss_mb"), "MiB"),
        }
        notes = {
            name: f"{how} of {len(reps)} commands; measured wall time p95 "
            f"{p95(reps, 'wall_s'):.6g}, median {median(reps, 'wall_s'):.6g}"
            for name, reps, how in (
                ("wall_s", full_reps, "CPU-time p95 x lowest wall/CPU ratio"),
                ("setup_s", setups, "CPU-time p95"),
                ("cpu_s", full_reps, "CPU-time p95"),
            )
        }
        raw = {"setup": [asdict(r) for r in setups], "full": [asdict(r) for r in full_reps]}
        return metrics, fulls, {"raw": raw, "notes": notes}

    def traced(self, seconds: float) -> tuple[dict, list, dict]:
        from layers import SpanStats, per_layer

        self._run(setup=True)
        self.setup_failures = 0
        plain, traced, layer_runs = [], [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_TRACED_REPS or time.perf_counter() < deadline:
            plain.append(self._run())
            path = self.work_dir / f"spans{self.n + 1}.json"
            traced.append(self._run(spans=path))
            if traced[-1][0].code == 0:
                with open(path, "r", encoding="utf-8") as fh:
                    layer_runs.append(per_layer(SpanStats(json.load(fh)["spans"])))
                keep = OUT / f"{self.w.name}-seed{self.seed}.spans.json"
                shutil.copyfile(path, keep)
        metrics: dict = {}
        notes: dict = {}
        if layer_runs:
            for name, (_, unit) in layer_runs[0][0].items():
                metrics[name] = (statistics.median(m[name][0] for m, _ in layer_runs), unit)
            notes = layer_runs[0][1]
        plain_reps = [r for r, _ in plain]
        wall = wall_estimate(plain_reps)
        metrics["harness.pool.cpu_util"] = (p95(plain_reps, "cpu_s") / (wall * self.w.threads), "ratio")
        metrics["trace.overhead_frac"] = (wall_estimate([r for r, _ in traced]) / wall - 1.0, "ratio")
        raw = {"untraced": [asdict(r) for r in plain_reps], "traced": [asdict(r) for r, _ in traced]}
        return metrics, plain + traced, {"raw": raw, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hybandit" / "cli.py").is_file():
        print(f"error: no hybandit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    machine = machine_record()
    bench = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    run = bench.traced if args.trace else bench.end_to_end
    metrics, reps, extra = run(args.seconds)
    attempted, failed, problems = bench.check(reps)
    correct = failed == 0 and not problems

    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload: {args.workload} seed={args.seed} work={bench.w.work} policy-rounds per command")
    for name, (value, unit) in metrics.items():
        note = extra["notes"].get(name)
        print(f"  {name:42s} {value:14.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} traces)")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({**result, "machine": machine, "problems": problems, **extra}, fh, indent=1)
    shutil.rmtree(bench.work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
