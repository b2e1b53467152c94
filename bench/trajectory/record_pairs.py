#!/usr/bin/env python3
"""Run alternating parent/change benchmark pairs and append them to a trajectory.

    python3 bench/trajectory/record_pairs.py --parent ../parent --change . \\
        --workload day-instant --seeds 1 2 2027 --seconds 20 \\
        --parent-label 10ac791 --change-label "storm-field index"

Each pair runs `perfbench/run.py --trace 0` once in the parent tree and once
in the change tree, parent first on even pairs and change first on odd ones,
and appends one JSON line to bench/trajectory/<workload>.jsonl: the seed,
the side order, and the nine end-to-end values (BENCHMARK.json
`end_to_end`, each the median over the run's passes) of each side.  Run
both trees' benchmark once beforehand so neither pair times a build.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_side(tree, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(tree, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=True)
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result.get("correct", False) or result.get("failed", 0):
        sys.exit(f"{tree}: {workload} seed {seed} failed its checks")
    return result["metrics"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent tree")
    parser.add_argument("--change", required=True, help="change tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--parent-label", default="parent")
    parser.add_argument("--change-label", default="change")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [m["name"] for m in json.load(f)["end_to_end"]]
    out_path = os.path.join(HERE, f"{args.workload}.jsonl")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for pair, seed in enumerate(args.seeds):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        values = {}
        for side in order:
            metrics = run_side(trees[side], args.workload, seed, args.seconds)
            values[side] = {n: metrics[n]["value"] for n in names}
        line = {"workload": args.workload, "seed": seed, "order": order,
                "seconds": args.seconds,
                "parent_label": args.parent_label,
                "change_label": args.change_label,
                "parent": values["parent"], "change": values["change"]}
        with open(out_path, "a") as f:
            f.write(json.dumps(line, sort_keys=True) + "\n")
        ratio = (values["change"]["sim_hours_per_s"] /
                 values["parent"]["sim_hours_per_s"])
        print(f"pair {pair} seed {seed} {'/'.join(order)}: "
              f"sim_hours_per_s {values['parent']['sim_hours_per_s']:.3f} -> "
              f"{values['change']['sim_hours_per_s']:.3f} ({ratio:.2f}x)",
              flush=True)


if __name__ == "__main__":
    main()
