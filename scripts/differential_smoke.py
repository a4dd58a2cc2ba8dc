#!/usr/bin/env python
"""CI smoke runner for the differential oracle (~30 s, fixed seed).

Usage::

    PYTHONPATH=src python scripts/differential_smoke.py [--schemas N]
        [--updates N] [--seed N] [--trace-out FILE.jsonl]

Exit status 0 iff the four maintenance tracks (cached fast path, uncached
evaluator, full recompute from sources, columnar engine) agree on every
step and the fast track took the evaluator's delta-driven restriction at
least once (its count is printed: with none, the oracle would not be
checking that path). See ``tests/differential/harness.py`` for the track
definitions.

``--trace-out`` enables tracing on the fast track and streams every
refresh's span tree to a JSONL file (summarize it with
``python -m repro obs report FILE``); CI uploads this file as a build
artifact so differential failures are diagnosable from the trace alone.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.differential.harness import DifferentialConfig, run_differential


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schemas", type=int, default=20)
    parser.add_argument("--updates", type=int, default=12)
    parser.add_argument("--seed", type=int, default=20260806)
    parser.add_argument(
        "--trace-out",
        default=None,
        help="write the fast track's refresh traces to this JSONL file",
    )
    args = parser.parse_args(argv)

    config = DifferentialConfig(
        n_schemas=args.schemas, n_updates=args.updates, seed=args.seed
    )
    sink = None
    if args.trace_out:
        from repro.obs import JsonlSink

        sink = JsonlSink(args.trace_out, mode="w")
    started = time.perf_counter()
    try:
        report = run_differential(config, trace_sink=sink)
    finally:
        if sink is not None:
            sink.close()
    elapsed = time.perf_counter() - started
    print(f"{report.summary()} in {elapsed:.1f}s")
    if sink is not None:
        print(f"fast-track traces written to {args.trace_out}")
    for disagreement in report.disagreements:
        print(f"  {disagreement}", file=sys.stderr)
    if not report.restrictions:
        print("  the fast track never took delta-driven restriction", file=sys.stderr)
    return 0 if report.ok and report.restrictions else 1


if __name__ == "__main__":
    raise SystemExit(main())
