#!/usr/bin/env python
"""Replay a ``query_serve`` stream and report the inverse-image counters.

Usage::

    PYTHONPATH=src python scripts/image_report.py [--seed N] [--seconds S]

Builds the benchmark suite's ``query_serve`` inputs (``benchmarks/suite``,
read-only here) and issues its schedule once on an unsharded warehouse,
closed loop: a refresh after every tenth answer. Prints the
``warehouse.inverse_images.full`` / ``.patched`` counters, the
``warehouse.inverse_image_rows`` gauge, and the answer p50 split into the
first answer after each refresh (the one that folds the refresh's
effective update into the images it reads) and the others, overall and per
query class. Timings are wall clock on the machine that runs it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "suite"))

import workloads  # noqa: E402
from streams import Op  # noqa: E402


def p50_ms(values) -> str:
    return f"{statistics.median(values) * 1e3:.3f}" if values else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)

    plan = workloads.plan_for("query_serve", args.seconds)
    inputs = workloads.make_inputs("query_serve", args.seed, plan)
    warehouse, _ = workloads.build_warehouse(inputs)
    metrics = warehouse.metrics
    before = {how: metrics.value(f"warehouse.inverse_images.{how}")
              for how in ("full", "patched")}
    first, rest = {}, {}
    after_refresh = False
    for phase in workloads.schedule_for("query_serve", inputs.refreshes, inputs.queries):
        for item in phase:
            if isinstance(item, Op):
                workloads.fold(warehouse, item)
                after_refresh = True
                continue
            started = perf_counter()
            warehouse.answer(item.text)
            elapsed = perf_counter() - started
            bucket = first if after_refresh else rest
            bucket.setdefault(item.klass, []).append(elapsed)
            after_refresh = False

    for how in ("full", "patched"):
        count = metrics.value(f"warehouse.inverse_images.{how}") - before[how]
        print(f"warehouse.inverse_images.{how:<8} {count:>8.0f}  (set-up: {before[how]:.0f})")
    print(f"warehouse.inverse_image_rows     {metrics.value('warehouse.inverse_image_rows'):>8.0f}")
    print(f"{'class':<10} {'first n':>8} {'first p50 ms':>13} {'other n':>8} {'other p50 ms':>13}")
    for klass in sorted(set(first) | set(rest)):
        a, b = first.get(klass, []), rest.get(klass, [])
        print(f"{klass:<10} {len(a):>8} {p50_ms(a):>13} {len(b):>8} {p50_ms(b):>13}")
    every_first = [t for values in first.values() for t in values]
    every_rest = [t for values in rest.values() for t in values]
    print(f"{'all':<10} {len(every_first):>8} {p50_ms(every_first):>13} "
          f"{len(every_rest):>8} {p50_ms(every_rest):>13}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
