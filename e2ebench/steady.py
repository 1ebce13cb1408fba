#!/usr/bin/env python3
"""Steadiness check: runs one workload in two sets of runs and compares.

    python3 e2ebench/steady.py --workload tpch-vm

Run from the root of a checkout. Each set makes RUNS untraced runs through
e2ebench/run.py, each with its own --seed (set A: 1..5, set B: 6..10),
for BENCHMARK.json's run_seconds. For every metric it prints the median
and quartiles of each set and of both sets pooled, as
statistics.quantiles(values, n=4) gives them. An end-to-end metric is
flagged when its set medians differ by more than its bound, or when the
quartile spread (Q3 - Q1) / median of a set or of the pool exceeds the
bound (setup_s is exempt from the spread check). A differing share of
failed operations between the sets is flagged too. Exits 1 on any flag.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS = 5  # runs per set


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        sys.exit(f"run failed: workload={workload} seed={seed}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(out.stderr[-2000:])
        print(f"  seed {seed}: correct=false")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets = []
    for s in range(2):
        results = []
        for i in range(RUNS):
            seed = s * RUNS + i + 1
            results.append(run_once(args.workload, seed, seconds))
        sets.append(results)

    flags = []
    shares = [sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
              for rs in sets]
    if shares[0] != shares[1]:
        flags.append(f"failed share differs: {shares[0]} vs {shares[1]}")
    print(f"{'metric':32} {'unit':9} {'set':3} {'q1':>14} {'median':>14} "
          f"{'q3':>14} {'spread':>8} {'bound':>6}")
    for name in sorted(sets[0][0]["metrics"]):
        unit = sets[0][0]["metrics"][name]["unit"]
        bound = bounds.get(name)
        groups = [("A", sets[0]), ("B", sets[1]), ("all", sets[0] + sets[1])]
        medians = []
        for label, rs in groups:
            values = [r["metrics"][name]["value"] for r in rs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            medians.append(med)
            print(f"{name:32} {unit:9} {label:3} {q1:14.6g} {med:14.6g} "
                  f"{q3:14.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}")
            if bound is not None and name != "setup_s" and spread > bound:
                flags.append(f"{name}: set {label} spread {spread:.4f} "
                             f"> bound {bound}")
        if bound is not None and medians[0]:
            drift = abs(medians[1] - medians[0]) / abs(medians[0])
            if drift > bound:
                flags.append(f"{name}: set medians differ by {drift:.4f} "
                             f"> bound {bound}")
    for flag in flags:
        print("FLAG", flag)
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
