"""E7 — Section 4 / Theorem 4.1 / Example 4.1: update independence at scale.

Replays TPC-D-like order/lineitem insertion streams against the warehouse
and times the two source-free strategies (and the trivial-complement
replica for the storage trade-off).

Expected shape: incremental refresh beats full recomputation, with the gap
growing with scale (the view recomputation performs the 3-way fact join
from scratch; the incremental plan joins only the delta against
materialized warehouse relations).
"""

from __future__ import annotations

import random

import pytest

from repro import Warehouse, complement_trivial
from repro.core.maintenance import full_recompute_state, refresh_state
from repro.workloads import tpcd_instance
from repro.workloads.tpcd import order_insert_rows

from _helpers import print_table

SCALES = [0.5, 2.0, 6.0]


def build(scale: float):
    inst = tpcd_instance(scale=scale, seed=21)
    wh = Warehouse.specify(inst.catalog, inst.views)
    wh.initialize(inst.database)
    rng = random.Random(3)
    updates = []
    for _ in range(3):
        orders, lines = order_insert_rows(rng, inst.database, count=3)
        updates.append(inst.database.insert("Orders", orders))
        updates.append(inst.database.insert("Lineitem", lines))
    return inst, wh, updates


@pytest.mark.parametrize("scale", SCALES)
def test_incremental_stream(benchmark, scale):
    inst, wh, updates = build(scale)
    base_state = dict(wh.state)

    def run():
        state = base_state
        for update in updates:
            state, _, _ = refresh_state(wh.spec, state, update)
        return state

    benchmark(run)


@pytest.mark.parametrize("scale", SCALES)
def test_recompute_stream(benchmark, scale):
    inst, wh, updates = build(scale)
    base_state = dict(wh.state)

    def run():
        state = base_state
        for update in updates:
            state = full_recompute_state(wh.spec, state, update)
        return state

    benchmark(run)


def test_report_series(benchmark):
    import time

    rows = []
    for scale in SCALES:
        inst, wh, updates = build(scale)
        state = dict(wh.state)

        def run_incremental():
            current = dict(state)
            for update in updates:
                current, _, _ = refresh_state(wh.spec, current, update)
            return current

        def run_recompute():
            current = dict(state)
            for update in updates:
                current = full_recompute_state(wh.spec, current, update)
            return current

        def timed(func):
            best = float("inf")
            result = None
            for _ in range(3):  # best-of-3 damps scheduler noise
                start = time.perf_counter()
                result = func()
                best = min(best, time.perf_counter() - start)
            return best, result

        incremental_time, incremental = timed(run_incremental)
        recompute_time, recomputed = timed(run_recompute)
        t0, t1, t2 = 0.0, incremental_time, incremental_time + recompute_time
        assert incremental == recomputed  # Theorem 4.1: both are W(d')

        trivial_spec = complement_trivial(inst.catalog, inst.views)
        trivial = Warehouse(trivial_spec)
        trivial.initialize(inst.database)
        rows.append(
            (
                scale,
                inst.database.total_rows(),
                f"{(t1 - t0) * 1e3:.1f}",
                f"{(t2 - t1) * 1e3:.1f}",
                f"{(t2 - t1) / (t1 - t0):.1f}x",
                wh.storage_rows(),
                trivial.storage_rows(),
            )
        )
    print_table(
        "E7 (Theorem 4.1): 6-batch update stream, incremental vs recompute",
        (
            "scale",
            "src rows",
            "incremental [ms]",
            "recompute [ms]",
            "speedup",
            "wh rows (thm22)",
            "wh rows (trivial)",
        ),
        rows,
    )
    # Incremental wins at every scale (ratios jitter run-to-run, so the
    # assertion is a floor, not monotonicity).
    speedups = [float(row[4][:-1]) for row in rows]
    assert all(s >= 1.0 for s in speedups), speedups
    assert max(speedups) > 2.0, speedups

    inst, wh, updates = build(SCALES[0])
    state = dict(wh.state)
    benchmark(lambda: refresh_state(wh.spec, state, updates[0]))
