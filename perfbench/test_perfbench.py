#!/usr/bin/env python3
"""Self-tests for the DGS benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload with a tiny horizon in both modes and checks that each
metric BENCHMARK.json names is printed with its unit and that no operation
failed; then breaks the digest check and the snapshot round trip on purpose
and checks that the failures are counted.  Builds the benchmark first, like
run.py, so the first call takes a while.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    lines = proc.stdout.rstrip("\n").split("\n")
    return json.loads(lines[-1]), lines[:-1]


class Workloads(unittest.TestCase):
    def check(self, trace, section):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                result, report = run(w["name"], trace)
                self.assertTrue(result["correct"])
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], 0)
                self.assertIn("failed_frac = 0 failed/attempted",
                              "\n".join(report))
                metrics = result["metrics"]
                self.assertEqual(sorted(metrics),
                                 sorted(m["name"] for m in SPEC[section]))
                for m in SPEC[section]:
                    self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(metrics[m["name"]]["value"],
                                          (int, float))
                    self.assertTrue(
                        any(line.split()[:1] == [m["name"]] and
                            line.split()[-1] == m["unit"]
                            for line in report),
                        f"{m['name']} not printed with its unit")

    def test_timed_run_prints_every_end_to_end_metric(self):
        self.check(0, "end_to_end")

    def test_traced_run_prints_every_per_layer_metric(self):
        self.check(1, "per_layer")

    def test_clear_sky_workload_samples_no_weather(self):
        result, _ = run("scale-10k-clearsky", 1)
        self.assertEqual(
            result["metrics"]["weather.samples_per_step"]["value"], 0)


class BrokenChecksAreCounted(unittest.TestCase):
    def assert_failures(self, workload, trace, inject):
        result, _ = run(workload, trace, "--inject", inject)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_corrupted_digest(self):
        self.assert_failures("day-instant", 0, "corrupt-digest")
        self.assert_failures("day-instant", 1, "corrupt-digest")

    def test_broken_snapshot_round_trip(self):
        self.assert_failures("serve-tenants", 0, "break-roundtrip")
        self.assert_failures("day-lookahead-storm", 1, "break-roundtrip")


if __name__ == "__main__":
    unittest.main()
