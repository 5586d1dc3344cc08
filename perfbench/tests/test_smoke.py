#!/usr/bin/env python3
"""Smoke self-test of the whole-program benchmark, at tiny sizes.

    python3 perfbench/tests/test_smoke.py

Builds the benchmark like perfbench/run.py does (into $CARGO_TARGET_DIR,
default .bench_build) and checks, for every workload:
  - the end-to-end run prints every end_to_end metric of BENCHMARK.json with
    its unit, and the traced run every per_layer metric;
  - the result line has exactly the keys correct/attempted/failed/metrics and
    a fault-free run has no failed iteration;
  - a deliberately wrong expected result is counted as failed iterations.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["ray-farm", "loadgen-open", "loadgen-overload", "sieve-adaptive"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7",
         "--seconds", "0.2", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, result, wanted):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in wanted))
        for m in wanted:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_and_units(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, 0)
                self.check_metrics(result, spec()["end_to_end"])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertTrue(any(l.startswith("fingerprint: ")
                                    for l in lines))
                self.assertTrue(any(l.startswith("virtual_digest: ")
                                    for l in lines))

    def test_traced_run_prints_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = run(workload, 1)
                self.check_metrics(result, spec()["per_layer"])
                self.assertTrue(result["correct"])
                self.assertTrue(any(l.startswith("layer table")
                                    for l in lines))

    def test_wrong_expected_result_counts_as_failed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, result = run(workload, 0, "--corrupt-expected")
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
