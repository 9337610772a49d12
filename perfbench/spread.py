#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]

Runs run.py once per seed on each workload (untraced, BENCHMARK.json's
run_seconds) and prints, per metric, the median and the distance between
the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. A spread
above a third of its bound is flagged: the benchmark aims to stay below.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--verbose", action="store_true", help="print every value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            proc = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print("%s seed %d failed (exit %d):\n%s" % (
                    workload, seed, proc.returncode, proc.stderr[-2000:]))
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s (%d seeds)" % (workload, args.seeds))
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            if spread > bounds[name]:
                flag = "  <-- ABOVE BOUND"
                worst = 1
            print("  %-16s median %12.6g  spread %6.3f  bound %.2f%s" % (
                name, median, spread, bounds[name], flag))
            if args.verbose:
                print("      " + " ".join("%.6g" % v for v in vals))
        sys.stdout.flush()
    return worst


if __name__ == "__main__":
    sys.exit(main())
