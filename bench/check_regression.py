#!/usr/bin/env python3
"""Merge google-benchmark JSON outputs and gate on regressions.

Used by the CI bench-smoke lane:

  1. each micro bench runs with --benchmark_format=json --benchmark_out=...
     and --benchmark_repetitions=5
  2. this script merges those files into one artifact (BENCH_micro.json)
  3. benchmarks whose names appear in the baseline are compared; if any
     gated benchmark's real_time exceeds baseline * threshold the script
     exits non-zero and prints the offenders.  A repeated benchmark is
     judged by its median row (aggregate_name "median", keyed by
     run_name), so one noisy repetition on a shared runner cannot fail
     the gate; a benchmark run once is judged by its iteration row.

The baseline (bench/baseline.json) pins the gated family (micro_simulator)
on the runner class CI uses; refresh it by copying the artifact's
"benchmarks" entries for the gated names after a deliberate perf change:

  python3 bench/check_regression.py --merge-only --out bench/baseline.json \
      BENCH_micro_simulator.json

Only relative time matters, so a baseline captured on slower hardware makes
the gate lenient, never flaky-strict, for faster runners.
"""

import argparse
import json
import re
import sys


def load_benchmarks(paths):
    merged = {"benchmarks": [], "contexts": {}}
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        merged["benchmarks"].extend(data.get("benchmarks", []))
        if "context" in data:
            exe = data["context"].get("executable", path)
            merged["contexts"][exe] = data["context"]
    return merged


def by_name(doc):
    """One row per benchmark: its median aggregate when it was repeated,
    its iteration row otherwise."""
    out = {}
    medians = {}
    for b in doc.get("benchmarks", []):
        run_type = b.get("run_type", "iteration")
        if run_type == "iteration":
            out[b["name"]] = b
        elif b.get("aggregate_name") == "median":
            medians[b.get("run_name", b["name"])] = b
    out.update(medians)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("inputs", nargs="+",
                    help="google-benchmark JSON output files")
    ap.add_argument("--baseline", default=None,
                    help="checked-in baseline JSON to gate against")
    ap.add_argument("--threshold", type=float, default=1.25,
                    help="fail when real_time > baseline * threshold")
    ap.add_argument("--out", default=None,
                    help="write the merged artifact here")
    ap.add_argument("--merge-only", action="store_true",
                    help="merge and write --out without gating")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="gate only baseline entries whose name matches "
                         "(lets lanes share one baseline file)")
    ap.add_argument("--exclude", default=None, metavar="REGEX",
                    help="skip baseline entries whose name matches")
    args = ap.parse_args()

    merged = load_benchmarks(args.inputs)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(merged, fh, indent=1, sort_keys=True)
        print(f"wrote {args.out} ({len(merged['benchmarks'])} benchmarks)")
    if args.merge_only:
        return 0

    if not args.baseline:
        print("no --baseline given and not --merge-only", file=sys.stderr)
        return 2
    with open(args.baseline) as fh:
        baseline = by_name(json.load(fh))
    current = by_name(merged)

    failures = []
    compared = 0
    for name, base in sorted(baseline.items()):
        if args.filter and not re.search(args.filter, name):
            continue
        if args.exclude and re.search(args.exclude, name):
            continue
        cur = current.get(name)
        if cur is None:
            failures.append(f"{name}: present in baseline but not in run")
            continue
        compared += 1
        ratio = cur["real_time"] / base["real_time"]
        status = "OK " if ratio <= args.threshold else "FAIL"
        print(f"  [{status}] {name}: {cur['real_time']:.0f} vs baseline "
              f"{base['real_time']:.0f} {base.get('time_unit', 'ns')} "
              f"(x{ratio:.2f}, limit x{args.threshold:.2f})")
        if ratio > args.threshold:
            failures.append(
                f"{name}: {ratio:.2f}x the baseline real_time "
                f"(limit {args.threshold:.2f}x)")

    if compared == 0:
        failures.append("no benchmark in the run matched the baseline")
    if failures:
        print("\nbench regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"\nbench regression gate passed ({compared} benchmarks).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
