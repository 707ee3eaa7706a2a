#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload small-ops --seeds 1-10 [--seconds 15]

Runs the benchmark once per seed, one run at a time, and prints for every
metric the median and the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        limit = bounds.get(name)
        flag = "" if limit is None else ("  ok" if spread < limit / 3 else "  WIDE")
        third = "" if limit is None else f"  (bound/3 {limit / 3:.4f})"
        print(f"{name:40s} median {med:.6g}  spread {spread:.4f}{third}{flag}")
        print("    " + " ".join(f"{x:.4g}" for x in xs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
