#!/usr/bin/env python3
"""Runs the benchmark on one workload over several seeds and prints, for
every metric, the median, the quartiles and the interquartile range as a
share of the median (the spread BENCHMARK.json's bounds are set against).

    python3 perfbench/spread.py --workload serve --seeds 1-10

It runs the command from BENCHMARK.json, from the root of the
repository, for run_seconds with --trace 0, and prints each run's host
conditions before the table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    results = []
    for seed in seeds(a.seeds):
        args = bench["command"] + ["--workload", a.workload, "--seed", str(seed),
                                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        run = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr[-2000:]}")
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2]) if len(lines) > 1 else {}
        host = detail.get("host")
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} host={host}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / abs(med) if med else float("inf")
        bound = bounds.get(name)
        print(f"{name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")


if __name__ == "__main__":
    main()
