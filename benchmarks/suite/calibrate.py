"""Measure the benchmark's own run-to-run spread, the way the driver does.

    python3 benchmarks/suite/calibrate.py --runs 10 --first-seed 101 --out spread.json

runs every workload ``--runs`` times through the contract command, each time
with another seed, and prints for every (workload, end-to-end metric) the
median and the interquartile distance as a share of it
(``statistics.quantiles(values, n=4)``), beside the metric's bound. A spread
under a third of the bound is *steady*, under the bound *within*, else
*WIDE* — and a WIDE metric means the benchmark, not the program, needs work.
Given two ``--out`` files, ``compare.py`` says whether the two sets agree.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

SUITE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SUITE)

import metrics  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--workload", action="append", choices=list(metrics.WORKLOADS))
    parser.add_argument("--out", help="write every run's result line here")
    args = parser.parse_args()

    results: Dict[str, List[Dict[str, object]]] = {}
    wide = 0
    for workload in args.workload or metrics.WORKLOADS:
        runs = results.setdefault(workload, [])
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(SUITE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)  # exit 1 = wrong results: counted below
            line = json.loads(done.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            runs.append(line)
        for metric in metrics.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            share = metrics.spread(values)
            verdict = ("steady" if share < metric.bound / 3
                       else "within" if share <= metric.bound else "WIDE")
            wide += verdict == "WIDE" and metric.name != "setup_s"
            print(f"{workload:16s} {metric.name:22s} median {statistics.median(values):12.6g} "
                  f"{metric.unit:8s} spread {share:7.2%}  bound {metric.bound:.0%}  {verdict}",
                  flush=True)
        failed = sum(run["failed"] for run in runs)
        print(f"{workload:16s} failed operations: {failed}", flush=True)
        wide += failed
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
