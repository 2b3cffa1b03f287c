"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads shared_heavy,many_arms --seeds 1-10 \
        --seconds 25 [--out spread.json]

Runs ``run.py --trace 0`` once per (workload, seed), one run at a time, and
reports for each metric the median and the quartile spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  ``--out`` writes every value, the spreads, the seeds
and the machine record as JSON (the format of ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import machine_record  # puts src/ on sys.path for workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--out", help="write the per-metric values and spreads as JSON")
    args = parser.parse_args(argv)
    seeds = seeds_arg(args.seeds)
    report = {}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for metric, m in result["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
        report[name] = {
            "why": WORKLOADS[name].why,
            "seeds": seeds,
            "metrics": {metric: spread(vals) for metric, vals in values.items()},
        }
        for metric, s in report[name]["metrics"].items():
            print(f"{name:24s} {metric:14s} median {s['median']:12.6g}  spread {s['spread']:.4f}", flush=True)
    if args.out:
        doc = {
            "machine": machine_record(),
            "run_seconds": args.seconds,
            "workloads": report,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
