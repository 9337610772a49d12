#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

Each test drives run.py on tiny runs (--seconds 1), so the whole file
takes a few minutes on 4 cores after the first build.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


_RUNS = {}


def run(workload, trace, *extra, seed=5):
    """One tiny run.py run (memoised: several tests read the same run)."""
    key = (workload, trace, extra, seed)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", str(trace), *extra],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        result = None
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines[-1])
        _RUNS[key] = (proc, result)
    return _RUNS[key]


def provenance(proc):
    for line in proc.stdout.splitlines():
        if line.startswith("provenance "):
            return json.loads(line[len("provenance "):])
    return None


class MetricsPresentTest(unittest.TestCase):
    """A tiny run of each workload reports every declared metric with its unit."""

    def check(self, trace, declared):
        want = {m["name"]: m["unit"] for m in declared}
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {n: m["unit"] for n, m in result["metrics"].items()}
                self.assertEqual(got, want)
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float), name)
                # Every metric is printed by name with its unit too.
                for name, unit in want.items():
                    self.assertRegex(proc.stdout, r"(?m)^metric %s \S+ %s$" % (
                        name.replace(".", r"\."), unit.replace("/", r"\/")))
                if not trace:
                    for name, metric in result["metrics"].items():
                        self.assertGreater(metric["value"], 0, name)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class AttributionTest(unittest.TestCase):
    """Summed layer self times account for traced busy time (within 1%),
    and the span file is Chrome trace-event JSON."""

    def test_self_times_account_for_busy_time(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 1)
                self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                m = {n: v["value"] for n, v in result["metrics"].items()}
                self.assertGreater(m["trace.busy_s"], 0)
                self.assertLessEqual(
                    abs(m["trace.self_sum_s"] - m["trace.busy_s"]),
                    0.01 * m["trace.busy_s"])
                path = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                    "traces", "%s-seed5.json" % workload)
                with open(path) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertEqual(len(events), m["trace.spans"])
                self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0 for e in events))


class CorrectnessGateTest(unittest.TestCase):
    """A perturbed reference makes the serve == batch and sweep-digest
    gates fail: non-zero exit, correct false, failures counted."""

    def test_perturbed_reference_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc, result = run(workload, 0, "--perturb-reference")
                self.assertEqual(proc.returncode, 1, proc.stderr[-3000:])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)


class DigestTest(unittest.TestCase):
    """All runs on one seed produce the same outputs: the untraced run
    (ParallelSweep, engine) and the traced run (independently driven
    RunPrequential tasks for the sweep) stamp the same output digest."""

    def test_runs_on_one_seed_agree(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                untraced, _ = run(workload, 0)
                traced, _ = run(workload, 1)
                self.assertEqual(untraced.returncode, 0, untraced.stderr[-3000:])
                self.assertEqual(traced.returncode, 0, traced.stderr[-3000:])
                digest = provenance(untraced)["output_digest"]
                self.assertEqual(digest, provenance(traced)["output_digest"])
                other, _ = run(workload, 0, seed=6)
                self.assertNotEqual(digest, provenance(other)["output_digest"])


class MissingSourcesTest(unittest.TestCase):
    """With only BENCHMARK.json and the benchmark's own files, the run
    fails without printing a result."""

    def test_fails_without_library_sources(self):
        build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        os.makedirs(build, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
