"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 benchmarks/suite/compare.py OLD.json NEW.json
    python3 benchmarks/suite/compare.py --old A1.json A2.json --new B1.json B2.json

Each file is a document written by ``run.py --out`` (one run per workload) or
by ``calibrate.py --out`` (several); all runs of a side are pooled. A row
shows both medians, their ratio with its base, the metric's bound from the
catalogue and a verdict:

* ``worse`` / ``better`` — the median moved against / with the metric's
  direction by more than the bound;
* ``same`` — it moved by less;
* ``unresolved`` — a side's own run-to-run spread (interquartile distance over
  its median) is wider than the bound and the two sides' ranges overlap, so
  the runs cannot tell. More runs or a longer run, not a verdict.

``carried`` marks a pair outside the metric's native workloads (README.md).
The exit code is non-zero on any ``worse`` and on any rise in ``error_rate``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

Runs = Dict[str, List[Dict[str, object]]]  # workload -> result lines


def load(paths: Sequence[str]) -> Runs:
    """Pool the result lines of several files, by workload."""
    pooled: Runs = {}
    for path in paths:
        with open(path) as handle:
            document = json.load(handle)
        if "workloads" in document:  # run.py --out
            for workload, parts in document["workloads"].items():
                pooled.setdefault(workload, []).append(parts["end_to_end"])
        else:  # calibrate.py --out
            for workload, lines in document.items():
                pooled.setdefault(workload, []).extend(lines)
    return pooled


def judge(old: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """The verdict for one (workload, metric) pair, from both sides' values."""
    base = statistics.median(old)
    moved = (statistics.median(new) - base) / base if base else 0.0
    worsening = moved if better == "lower" else -moved
    overlap = min(old) <= max(new) and min(new) <= max(old)
    if max(metrics.spread(old), metrics.spread(new)) > bound and overlap:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def error_rate(lines: Sequence[Dict[str, object]]) -> float:
    return sum(line["failed"] for line in lines) / sum(line["attempted"] for line in lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pair", nargs="*", help="OLD.json NEW.json")
    parser.add_argument("--old", nargs="+", default=[])
    parser.add_argument("--new", nargs="+", default=[])
    args = parser.parse_args()
    if len(args.pair) == 2 and not args.old and not args.new:
        args.old, args.new = args.pair[:1], args.pair[1:]
    elif args.pair or not args.old or not args.new:
        parser.error("give OLD.json NEW.json, or --old FILES --new FILES")

    old, new = load(args.old), load(args.new)
    bad = 0
    print(f"{'workload':16s} {'metric':22s} {'old median':>12s} {'new median':>12s} "
          f"{'new/old':>8s} {'spread':>15s} {'bound':>6s}  verdict")
    for workload in old:
        if workload not in new:
            continue
        for metric in metrics.END_TO_END:
            before = [line["metrics"][metric.name]["value"] for line in old[workload]
                      if metric.name in line["metrics"]]
            after = [line["metrics"][metric.name]["value"] for line in new[workload]
                     if metric.name in line["metrics"]]
            if not before or not after:
                continue
            verdict = judge(before, after, metric.better, metric.bound)
            bad += verdict == "worse"
            base = statistics.median(before)
            print(f"{workload:16s} {metric.name:22s} {base:12.6g} "
                  f"{statistics.median(after):12.6g} "
                  f"{statistics.median(after) / base:8.3f} "
                  f"{metrics.spread(before):7.1%}/{metrics.spread(after):7.1%} {metric.bound:6.0%}  "
                  f"{verdict}  (base {base:.6g} {metric.unit}, n={len(before)}/{len(after)}"
                  f"{'' if workload in metric.native else ', carried'})")
        before_errors, after_errors = error_rate(old[workload]), error_rate(new[workload])
        rose = after_errors > before_errors
        bad += rose
        print(f"{workload:16s} {'error_rate':22s} {before_errors:12.6g} {after_errors:12.6g} "
              f"{'':8s} {'':15s} {'0':>6s}  {'worse' if rose else 'same'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
