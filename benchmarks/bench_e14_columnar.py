"""E14 — dict-encoded columnar kernels vs the PR-1 tuple engine.

Two sections, both against the *PR-1 engine* (the tuple-set ``Relation``
path with persistent hash indexes and delta patching — the production
engine before this PR):

1. **Kernel table at scale 6 (10^6 rows)**: each batch kernel
   (select/project/join/semi-join) timed against the equivalent tuple-set
   operation on cache-free relations (the PR-1 cost model for a first
   evaluation). The acceptance bar — >= 10x at scale 6 — is asserted on
   the dictionary-friendly kernels (equality select, semi-join, project);
   the table records the rest (hash join, range select) where the win is
   real but smaller.
2. **E7 maintenance stream at TPC-D scale 6**: the full refresh pipeline
   (``Warehouse.apply`` over interleaved order/lineitem batches) replayed
   through ``engine="columnar"`` vs the tuple fast path vs the seed
   evaluator. Final states are asserted identical — the speedup numbers
   are only worth recording because the answers agree.

Run with ``pytest benchmarks/bench_e14_columnar.py -s`` (benchmarks are
not part of tier-1).
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Relation, Warehouse
from repro.algebra.conditions import AttributeRef, Comparison, Constant
from repro.algebra.evaluator import EvaluationCache
from repro.core.maintenance import refresh_state
from repro.workloads import tpcd_instance
from repro.workloads.tpcd import order_insert_rows

from _helpers import print_table

#: log10 of the kernel-table row count; the ISSUE's "scale 6" = 10^6 rows.
KERNEL_SCALE = 6
KERNEL_ROWS = 10**KERNEL_SCALE

#: The acceptance bar, asserted on the dictionary-friendly kernels.
ACCEPTANCE_FLOOR = 10.0
ACCEPTANCE_KERNELS = ("select=", "semi-join", "project")


def _best(func, repeats: int = 3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fresh(relation: Relation) -> Relation:
    """Cache-free clone: PR-1 cost for a relation seen for the first time."""
    return Relation._raw(relation.attributes, relation.rows)


def kernel_fixture(n: int):
    left = Relation(("k", "a"), [(i % (n // 4), i) for i in range(n)])
    right = Relation(("k", "b"), [(i % (n // 4), -i) for i in range(n // 10)])
    return left, right


def kernel_cases(left: Relation, right: Relation):
    lt, rt = left.columnar(), right.columnar()
    eq = Comparison(AttributeRef("k"), "=", Constant(17))
    rng = Comparison(AttributeRef("a"), "<", Constant(len(left) // 10))
    eq_pred = eq.compile(left.attributes)
    rng_pred = rng.compile(left.attributes)
    return [
        ("join", lambda: _fresh(left).natural_join(_fresh(right)), lambda: lt.join(rt)),
        ("select=", lambda: _fresh(left).select(eq_pred), lambda: lt.select(eq)),
        ("select<", lambda: _fresh(left).select(rng_pred), lambda: lt.select(rng)),
        (
            "semi-join",
            lambda: _fresh(left).semi_join(_fresh(right)),
            lambda: lt.semi_join(rt),
        ),
        ("project", lambda: _fresh(left).project(("k",)), lambda: lt.project(("k",))),
    ]


def test_kernels_at_scale_6():
    left, right = kernel_fixture(KERNEL_ROWS)
    rows = []
    speedups = {}
    for name, tuple_op, columnar_op in kernel_cases(left, right):
        tuple_time, tuple_result = _best(tuple_op)
        columnar_time, columnar_result = _best(columnar_op)
        # Both sides computed the same relation (late materialization).
        assert columnar_result.to_relation() == tuple_result
        speedup = tuple_time / columnar_time
        speedups[name] = speedup
        rows.append(
            (
                name,
                f"{tuple_time * 1e3:.1f}",
                f"{columnar_time * 1e3:.1f}",
                f"{speedup:.1f}x",
            )
        )
    print_table(
        f"E14: batch kernels at 10^{KERNEL_SCALE} rows, "
        "tuple-set (PR-1) vs columnar",
        ("kernel", "tuple [ms]", "columnar [ms]", "speedup"),
        rows,
    )
    for name in ACCEPTANCE_KERNELS:
        assert speedups[name] >= ACCEPTANCE_FLOOR, (name, speedups)


def build_stream(scale: float):
    """The E7 workload: 3 order + 3 lineitem batches, interleaved (as E12)."""
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


def run_engine(wh, base_state, updates, engine=None, seed_mode=False):
    """Replay the stream through ``refresh_state`` with one engine config."""
    cache = None if seed_mode else EvaluationCache()
    state = strip_caches(base_state) if seed_mode else base_state
    for update in updates:
        state, _, _ = refresh_state(
            wh.spec,
            state,
            update,
            cache=cache,
            fastpath=not seed_mode,
            engine=engine,
        )
        if seed_mode:
            state = strip_caches(state)
    return state


def test_maintenance_stream_scale_6():
    wh, base_state, updates = build_stream(6.0)
    tracks = (
        ("seed", dict(seed_mode=True)),
        ("fast (PR-1)", dict(engine="tuple")),
        ("columnar", dict(engine="columnar")),
    )
    results = {}
    for label, kwargs in tracks:
        results[label] = _best(
            lambda kw=kwargs: run_engine(wh, base_state, updates, **kw)
        )
    # Same final state on every engine — the only speedups worth reporting.
    seed_time, seed_state = results["seed"]
    assert results["fast (PR-1)"][1] == seed_state
    assert results["columnar"][1] == seed_state
    print_table(
        "E14: 6-batch E7 update stream at TPC-D scale 6, per engine",
        ("engine", "stream [ms]", "vs seed"),
        [
            (label, f"{elapsed * 1e3:.1f}", f"{seed_time / elapsed:.1f}x")
            for label, (elapsed, _) in results.items()
        ],
    )
    # The refresh pipeline includes delta plumbing shared by both engines,
    # so the end-to-end ratio is smaller than the kernel table (the >= 10x
    # acceptance bar lives there). On fused refresh plans the tuple engine
    # is O(delta) (delta-patched indexes and projections) while the
    # columnar kernels scan warehouse-sized operands, so columnar is not
    # required to keep pace with it (EXPERIMENTS E15); both must beat the
    # seed evaluator.
    assert results["columnar"][0] < seed_time, results
    assert results["fast (PR-1)"][0] < seed_time, results


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_stream_benchmark(benchmark, engine):
    wh, base_state, updates = build_stream(2.0)
    benchmark(lambda: run_engine(wh, base_state, updates, engine=engine))
