"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload deep --runs 10 [--first-seed 1] [--seconds 20]

Prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of that median; this is
the run-to-run spread the metric's bound in BENCHMARK.json must cover.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        share = stats.spread(vals) if len(vals) >= 2 else float("nan")
        print(f"{args.workload} {name}: median {statistics.median(vals):.6g}"
              f" spread {share:.4f} bound {bounds[name]} ({share / bounds[name]:.2f} of bound)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
