#!/usr/bin/env python3
"""End-to-end benchmark entry point for OEBench-C++.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_grid --seed 1 --seconds 20 --trace 0

Builds the library and the perfbench driver from source (CMake + Ninja,
Release) into .bench_build, runs one workload, checks that its outputs
match the batch reference, and prints every metric by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 its per_layer metrics, and the span file is written to
.bench_build/traces/. Exit codes: 0 correct, 1 mismatch or failure
(result still printed), 2 usage, 3 build failure or invalid run (no
result printed).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("sweep_grid", "serve_fanout")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "build.ninja")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out, "-G", "Ninja",
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", out, "--", "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "perfbench")


def source_revision():
    """git revision when available, else a hash of every source file."""
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--perturb-reference", action="store_true",
                        help="flip one bit of the batch reference (tests the gate)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 3

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--rev", source_revision()]
    if args.trace:
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb_reference:
        command.append("--perturb-reference")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if proc.returncode not in (0, 1) or result is None:
        log("perfbench: run invalid or incomplete (exit %d)" % proc.returncode)
        return 3

    # The binary's metric set must be exactly the one BENCHMARK.json declares.
    declared = declared_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != declared:
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s, "
            "unit mismatches %s" % (
                sorted(set(declared) - set(got)), sorted(set(got) - set(declared)),
                sorted(n for n in got if n in declared and got[n] != declared[n])))
        return 3
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
