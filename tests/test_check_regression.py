#!/usr/bin/env python3
"""Tests for bench/check_regression.py (run under ctest as
check_regression_median).

A repeated benchmark is gated on its median row: a noisy first
repetition with a 1.0x median passes, a 1.3x median fails, and a
benchmark run once is still gated on its iteration row.

Dependency-free: stdlib unittest + subprocess only.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECK = os.path.join(REPO_ROOT, "bench", "check_regression.py")
NAME = "BM_StableMatchingPaperScale"


def iteration(real_time, index=None):
    row = {"name": NAME, "run_name": NAME, "run_type": "iteration",
           "real_time": real_time, "time_unit": "us"}
    if index is not None:
        row.update({"repetitions": 5, "repetition_index": index})
    return row


def repeated(times):
    """google-benchmark's rows for --benchmark_repetitions=len(times)."""
    rows = [iteration(t, i) for i, t in enumerate(times)]
    ordered = sorted(times)
    for aggregate, value in (("mean", sum(times) / len(times)),
                             ("median", ordered[len(times) // 2]),
                             ("stddev", 0.0)):
        rows.append({"name": f"{NAME}_{aggregate}", "run_name": NAME,
                     "run_type": "aggregate", "aggregate_name": aggregate,
                     "real_time": value, "time_unit": "us"})
    return rows


class MedianGate(unittest.TestCase):
    def gate(self, rows):
        """Exit code of the gate for a run of `rows` against a 100 us
        baseline at the CI threshold."""
        with tempfile.TemporaryDirectory() as tmp:
            baseline = os.path.join(tmp, "baseline.json")
            run = os.path.join(tmp, "run.json")
            with open(baseline, "w") as fh:
                json.dump({"benchmarks": [iteration(100.0)]}, fh)
            with open(run, "w") as fh:
                json.dump({"benchmarks": rows}, fh)
            proc = subprocess.run(
                [sys.executable, CHECK, "--baseline", baseline,
                 "--threshold", "1.25", run],
                capture_output=True, text=True)
            return proc.returncode

    # The outer repetitions sit on the wrong side of the threshold, so a
    # gate reading any single repetition row instead of the median fails
    # one of these two.
    def test_noisy_first_repetition_with_a_steady_median_passes(self):
        self.assertEqual(self.gate(repeated([160.0, 99.0, 100.0, 101.0,
                                             150.0])), 0)

    def test_a_slow_median_fails(self):
        self.assertEqual(self.gate(repeated([90.0, 129.0, 130.0, 131.0,
                                             95.0])), 1)

    def test_a_single_run_is_gated_on_its_iteration_row(self):
        self.assertEqual(self.gate([iteration(100.0)]), 0)
        self.assertEqual(self.gate([iteration(130.0)]), 1)


if __name__ == "__main__":
    unittest.main()
