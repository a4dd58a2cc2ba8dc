"""E12 — indexed-join fast path + cross-update cache vs the seed evaluator.

Replays the E7 maintenance workload (TPC-D-like order/lineitem insertion
streams, 6 batches) through two evaluator configurations:

* **fast** — the production path: a persistent
  :class:`~repro.algebra.evaluator.EvaluationCache` shared across refreshes,
  semi-/anti-join fast paths on, and ``Relation`` hash indexes / projection
  caches patched through delta-sized unions and differences, so the big
  warehouse relations keep their indexes across updates;
* **seed** — the evaluator as it was before the fast path landed: per-refresh
  memo only, no fast paths, and every state relation re-wrapped in a fresh
  ``Relation`` after each refresh. That re-wrap is what the old
  ``union``/``difference`` produced anyway (new objects, empty caches), so
  the baseline reproduces the seed's cost model: no index, projection, or
  evaluation cache survives a refresh.

Both configurations must produce identical states (checked every series run);
the speedup floor asserted at the largest scale is the E12 acceptance bar.
"""

from __future__ import annotations

import random

import pytest

from repro import Relation, Warehouse
from repro.algebra.evaluator import EvaluationCache
from repro.core.maintenance import refresh_state
from repro.workloads import tpcd_instance
from repro.workloads.tpcd import order_insert_rows

from _helpers import print_table

SCALES = [0.5, 2.0, 6.0]


def build(scale: float):
    """The E7 workload: 3 order batches + 3 lineitem batches, interleaved."""
    inst = tpcd_instance(scale=scale, seed=21)
    wh = Warehouse.specify(inst.catalog, inst.views)
    wh.initialize(inst.database)
    rng = random.Random(3)
    updates = []
    for _ in range(3):
        orders, lines = order_insert_rows(rng, inst.database, count=3)
        updates.append(inst.database.insert("Orders", orders))
        updates.append(inst.database.insert("Lineitem", lines))
    return wh, dict(wh.state), updates


def strip_caches(state):
    """Fresh ``Relation`` objects — the seed's post-refresh cache state."""
    return {name: Relation(rel.attributes, rel.rows) for name, rel in state.items()}


def run_seed(wh, base_state, updates):
    state = strip_caches(base_state)
    for update in updates:
        state, _, _ = refresh_state(
            wh.spec, state, update, cache=None, fastpath=False
        )
        state = strip_caches(state)
    return state


def run_fast(wh, base_state, updates, cache=None):
    cache = EvaluationCache() if cache is None else cache
    state = base_state
    for update in updates:
        state, _, _ = refresh_state(
            wh.spec, state, update, cache=cache, fastpath=True
        )
    return state


@pytest.mark.parametrize("scale", SCALES)
def test_seed_evaluator_stream(benchmark, scale):
    wh, base_state, updates = build(scale)
    benchmark(lambda: run_seed(wh, base_state, updates))


@pytest.mark.parametrize("scale", SCALES)
def test_fastpath_stream(benchmark, scale):
    wh, base_state, updates = build(scale)
    benchmark(lambda: run_fast(wh, base_state, updates))


def test_report_series(benchmark):
    import time

    def timed(func):
        best = float("inf")
        result = None
        for _ in range(5):  # best-of-5 damps scheduler noise
            start = time.perf_counter()
            result = func()
            best = min(best, time.perf_counter() - start)
        return best, result

    rows = []
    speedups = []
    for scale in SCALES:
        wh, base_state, updates = build(scale)
        seed_time, seed_state = timed(lambda: run_seed(wh, base_state, updates))
        fast_time, fast_state = timed(lambda: run_fast(wh, base_state, updates))
        assert seed_state == fast_state  # both are W(u(...)) — same final state
        speedup = seed_time / fast_time
        speedups.append(speedup)
        rows.append(
            (
                scale,
                sum(len(r) for r in base_state.values()),
                f"{seed_time * 1e3:.1f}",
                f"{fast_time * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        )
    print_table(
        "E12: 6-batch E7 update stream, seed evaluator vs indexed fast path",
        ("scale", "wh rows", "seed [ms]", "fastpath [ms]", "speedup"),
        rows,
    )
    # The acceptance bar: >= 2x over the seed evaluator at the largest size.
    assert speedups[-1] >= 2.0, speedups

    wh, base_state, updates = build(SCALES[0])
    cache = EvaluationCache()
    run_fast(wh, base_state, updates, cache=cache)  # warm
    benchmark(lambda: run_fast(wh, base_state, updates, cache=cache))
