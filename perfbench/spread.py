#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload study-paper --seeds 1-10 [--trace 0]

Runs the command from BENCHMARK.json from the repository root, prints
every run's metrics, then for each metric the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.monotonic()
        run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        wall = time.monotonic() - t0
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        row = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in row.items():
            values.setdefault(k, []).append(v)
        shown = " ".join(f"{k}={v:.6g}" for k, v in row.items() if k in bounds or args.trace == "1")
        print(f"seed {seed:>3} wall {wall:6.1f}s correct={result['correct']} "
              f"failed={result['failed']} {shown}", flush=True)

    print(f"\n{'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / abs(med):8.4f}"
        else:
            spread = "       -"
        bound = bounds.get(name)
        print(f"{name:<32} {med:>14.6g} {spread} {bound if bound is not None else '-':>6}")


if __name__ == "__main__":
    main()
