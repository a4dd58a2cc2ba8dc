"""Delta-driven restriction on TPC-D refreshes: when it fires, and what it reads.

A refresh whose delta is small against the warehouse evaluates the
warehouse-sized operands of its plans only at the delta's key values
(:mod:`repro.algebra.evaluator`); a delta above the 1 : 16 crossover, like
the benchmark suite's ``refresh_bulk`` batches, runs the plain evaluation.
"""

from __future__ import annotations

import random

import pytest

from repro import Update, Warehouse
from repro.algebra.evaluator import evaluate_all
from repro.workloads import tpcd_instance
from repro.workloads.tpcd import order_insert_rows


@pytest.fixture()
def tpcd():
    return tpcd_instance(scale=2.0, seed=7)


def _warehouse(instance):
    warehouse = Warehouse.specify(instance.catalog, instance.views)
    warehouse.initialize(instance.database)
    return warehouse


def _recomputed(warehouse, sources):
    return evaluate_all(warehouse.spec.definitions_over_sources(), sources)


def test_a_one_row_insert_restricts(tpcd):
    warehouse = _warehouse(tpcd)
    sources = dict(tpcd.database.state())
    orders, lines = order_insert_rows(random.Random(5), tpcd.database, 1)
    for name, rows in (("Orders", orders), ("Lineitem", lines[:1])):
        update = Update.insert(name, sources[name].attributes, rows)
        warehouse.apply(update)
        assert warehouse.last_refresh_stats.restrictions > 0
        sources[name] = sources[name].union(update.delta_for(name).inserts)
    assert warehouse.metrics.value("evaluator.restrictions") > 0
    assert warehouse.state == _recomputed(warehouse, sources)


def test_a_bulk_shaped_batch_never_restricts(tpcd):
    # refresh_bulk's shape: 40 notifications, orders then their lineitems,
    # composed into one refresh about as large as the warehouse.
    warehouse = _warehouse(tpcd)
    sources = dict(tpcd.database.state())
    orders, lines = order_insert_rows(random.Random(6), tpcd.database, 320)
    inserts = []
    for chunk in range(20):
        keys = {row[0] for row in orders[chunk * 16:(chunk + 1) * 16]}
        inserts.append(Update.insert("Orders", sources["Orders"].attributes,
                                     [row for row in orders if row[0] in keys]))
        inserts.append(Update.insert("Lineitem", sources["Lineitem"].attributes,
                                     [row for row in lines if row[0] in keys]))
    warehouse.apply_batch(inserts)
    assert warehouse.last_refresh_stats.restrictions == 0
    deletes = [Update.of(*(d.inverted() for d in u)) for u in reversed(inserts)]
    warehouse.apply_batch(deletes)
    assert warehouse.last_refresh_stats.restrictions == 0
    assert warehouse.metrics.value("evaluator.restrictions") == 0
    assert warehouse.state == _recomputed(warehouse, sources)


def test_the_sanitizer_sees_restricted_reads(tpcd, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    warehouse = _warehouse(tpcd)
    warehouse.enable_tracing()
    _, lines = order_insert_rows(random.Random(7), tpcd.database, 1)
    existing = next(iter(tpcd.database["Orders"].rows))[0]
    line = (existing, 99) + lines[0][2:]
    warehouse.insert("Lineitem", [line])
    assert warehouse.last_refresh_stats.restrictions > 0
    reads = [s for s in warehouse.last_trace().walk() if s.name == "read"]
    fact_reads = [s for s in reads if s.attributes["relation"] == "SalesFact"]
    assert fact_reads
    assert all(s.attributes.get("restricted") for s in fact_reads)
    assert all("rows_out" in s.attributes for s in fact_reads)
