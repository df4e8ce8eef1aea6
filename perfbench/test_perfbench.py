#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/test_perfbench.py

Checks that each run exits 0, prints the metric names BENCHMARK.json lists
for its mode, fails no trial, and that the traced and untraced runs of a
workload print the same digest of their trial results. Builds the harness on
first use, like run.py.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=7):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


def digest_of(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("digest ")]
    assert len(lines) == 1, stdout
    return lines[0]


class SmokeTest(unittest.TestCase):
    def test_every_workload_both_modes(self):
        for w in SPEC["workloads"]:
            name = w["name"]
            digests = {}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    proc = run(name, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(m["name"] for m in SPEC[key]))
                    units = {m["name"]: m["unit"] for m in SPEC[key]}
                    for metric, v in result["metrics"].items():
                        self.assertEqual(v["unit"], units[metric], metric)
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    digests[trace] = digest_of(proc.stdout)
            self.assertEqual(digests[0], digests[1], name)

    def test_end_to_end_metrics_are_nonzero(self):
        proc = run("stream_service", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        for metric, v in result["metrics"].items():
            self.assertGreater(v["value"], 0, metric)

    def test_seed_changes_inputs(self):
        a = digest_of(run("gnp_sparse", 0, seed=1).stdout)
        b = digest_of(run("gnp_sparse", 0, seed=2).stdout)
        self.assertNotEqual(a, b)

    def test_unknown_workload_fails_without_result(self):
        proc = run("no_such_workload", 0)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
