"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --workloads soc-busy,verify --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --baseline perfbench/BASELINE.md

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound from ``BENCHMARK.json``.  ``--baseline`` writes the same
table, with the machine it ran on, as a markdown file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List

import common


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def machine() -> str:
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True,
    ).stdout.strip() or "absent"
    return (f"nproc {len(os.sched_getaffinity(0))}, {platform.machine()}, "
            f"CPython {platform.python_version()}, NumPy {numpy_version}, "
            f"Linux {platform.release()}")


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    completed = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {completed.returncode}:\n"
                           f"{completed.stderr[-2000:]}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--baseline", default="")
    args = parser.parse_args()
    with open(common.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    workloads = [w for w in args.workloads.split(",") if w] or [
        entry["name"] for entry in bench["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in bench["end_to_end"]}
    rows = []
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            result = run_once(workload, seed, bench["run_seconds"])
            status = "ok" if result["correct"] else f"INCORRECT ({result['failed']} failed)"
            print(f"{workload} seed {seed}: {status} in {time.perf_counter() - start:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            for key, metric in result["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        for key, series in values.items():
            stats = common.quartiles(series)
            spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
            rows.append((workload, key, stats, spread, bounds.get(key, 0.0) / 3, len(series)))
            print(f"  {workload:14s} {key:18s} median {stats['median']:<12.6g} "
                  f"spread {spread:.4f} (bound/3 {bounds.get(key, 0.0) / 3:.4f})", flush=True)
    if args.baseline:
        lines = [
            "# First measured baseline",
            "",
            f"Measured with `python3 perfbench/spread.py --seeds {args.seeds}` "
            f"(`run_seconds` {bench['run_seconds']}, one run per seed) on: {machine()}.",
            "Host-time metrics are at nominal host speed (see README.md).",
            "",
            "| workload | metric | median | q1 | q3 | spread (q3-q1)/median | runs |",
            "|---|---|---|---|---|---|---|",
        ]
        for workload, key, stats, spread, _, count in rows:
            lines.append(f"| {workload} | {key} | {stats['median']:.6g} | {stats['q1']:.6g} "
                         f"| {stats['q3']:.6g} | {spread:.4f} | {count} |")
        with open(args.baseline, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
