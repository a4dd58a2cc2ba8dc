"""The per-spec plan table, and fused plans on specs ``certify`` refuses.

Refresh plans are pure functions of ``(spec, update shape, side mask)``,
query plans of ``(spec, query)``; both live on the spec object, so every
warehouse built on it shares them.
And because the refresh path no longer asks for a certificate, the specs
:func:`repro.compiler.certify` refuses — star schemas, hybrid warehouses
with virtual complements — run the same fused plans as everything else;
they are replayed here through insert-only, delete-only and mixed updates
against evaluation of the definitions over a mirrored source database.
"""

from __future__ import annotations

import pytest

from repro import (
    Catalog,
    Database,
    Update,
    View,
    Warehouse,
    evaluate,
    parse,
    parse_condition,
    specify,
)
from repro.algebra.evaluator import evaluate_all
from repro.compiler import RefreshCompiler, certify, runtime
from repro.core import translation
from repro.core.hybrid import HybridWarehouse
from repro.core.selfmaint import self_maintenance_analysis
from repro.core.sharding import ShardedWarehouse, ShardRouting
from repro.core.star import FactTable, star_specify
from repro.errors import CompileError
from repro.workloads.tpcd import standard_views, tpcd_catalog, tpcd_instance

MODES = ("insert-only", "delete-only", "mixed")

#: One fresh, constraint-respecting row per TPC-D relation (and a second
#: one to swap in), keyed far above anything the generator produces.
TPCD_ROWS = {
    "Region": [(900, "ATLANTIS"), (901, "LEMURIA")],
    "Nation": [(900, "UTOPIA", 0), (901, "EREWHON", 0)],
    "Supplier": [(900, "Supplier#900", 0), (901, "Supplier#901", 0)],
    "Customer": [
        (900, "Customer#900", 0, "BUILDING"),
        (901, "Customer#901", 0, "BUILDING"),
    ],
    "Part": [(900, "Part#900", "Brand#9"), (901, "Part#901", "Brand#9")],
    "Orders": [(9000, 0, "O", 10), (9001, 0, "O", 11)],
    "Lineitem": [(0, 900, 0, 0, 1, 5), (0, 901, 0, 0, 2, 6)],
}


def three_masks(relation, attrs, first, second):
    """Insert ``first``; swap it for ``second`` (mixed); delete ``second``."""
    return [
        Update.insert(relation, attrs, [first]),
        Update.insert(relation, attrs, [second]).compose(
            Update.delete(relation, attrs, [first])
        ),
        Update.delete(relation, attrs, [second]),
    ]


class TestPlanSharing:
    def test_four_shards_derive_each_shape_and_mask_once(self):
        instance = tpcd_instance(scale=0.5, seed=3)
        warehouse = ShardedWarehouse.specify(
            tpcd_catalog(),
            standard_views(),
            routings=[
                ShardRouting("Orders", "orderkey", shards=4),
                ShardRouting("Lineitem", "orderkey", shards=4),
            ],
        )
        warehouse.initialize(instance.database)
        plans = RefreshCompiler.of(warehouse.spec)
        assert all(shard.spec is warehouse.spec for shard in warehouse.shards)
        assert plans.compiles == 0
        # The two fresh orders must land on one shard for their swap to
        # reach it as one mixed update.
        routing = warehouse.router.routing_for("Orders")
        twin = next(
            key for key in range(9001, 9100)
            if routing.shard_of(key) == routing.shard_of(9000)
        )
        rows = dict(TPCD_ROWS, Orders=[(9000, 0, "O", 10), (twin, 0, "O", 11)])
        for relation, (first, second) in rows.items():
            attrs = instance.catalog[relation].attributes
            for update in three_masks(relation, attrs, first, second):
                assert warehouse.apply(update)
        # 7 shapes x 3 side masks, however many shards ran each of them.
        assert plans.compiles == plans.plan_count == 7 * len(MODES)
        assert plans.cached_shapes() == sorted(
            (frozenset({relation}) for relation in TPCD_ROWS), key=sorted
        )
        refreshes = warehouse.aggregate_metrics()
        assert refreshes.value("compiler.compiles") == 7 * len(MODES)
        # Broadcast shapes ran on all four shards: three of them found the
        # plan the first one derived.
        assert refreshes.value("compiler.plan_cache_hits") >= 3 * 5 * 3

    def test_two_warehouses_on_one_spec_share_plans(
        self, figure1_catalog, figure1_database, sold_view
    ):
        spec = specify(figure1_catalog, [sold_view])
        first, second = Warehouse(spec), Warehouse(spec, engine="tuple")
        first.initialize(figure1_database)
        second.initialize(figure1_database)
        first.insert("Sale", [("Radio", "Paula")])
        second.insert("Sale", [("Radio", "Paula")])
        assert first.state == second.state
        assert RefreshCompiler.of(spec).compiles == 1
        assert first.metrics.value("compiler.compiles") == 1
        assert second.metrics.value("compiler.compiles") == 0
        assert second.metrics.value("compiler.plan_cache_hits") == 1
        # A different spec object over the same views has its own cache.
        other = specify(figure1_catalog, [sold_view])
        assert RefreshCompiler.of(other) is not RefreshCompiler.of(spec)


class TestQueryPlans:
    """The same table serves one answer plan per query."""

    QUERIES = ("Sale", "pi[clerk](Sale)", "pi[age](Sale join Emp)")

    def test_four_shards_translate_each_query_once(
        self, figure1_catalog, figure1_database, sold_view, monkeypatch
    ):
        # An armed query sanitizer re-translates per answer, by design.
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        # Count the way the benchmark suite's probe does: rebind the
        # function in its module and wherever it was imported by name.
        translated = []
        real = translation.answer_plan

        def counting(spec, query):
            translated.append(str(query))
            return real(spec, query)

        for module in (translation, runtime):
            monkeypatch.setattr(module, "answer_plan", counting)

        warehouse = ShardedWarehouse.specify(
            figure1_catalog, [sold_view],
            routings=[ShardRouting("Sale", "item", shards=4)],
        )
        warehouse.initialize(figure1_database)
        for round_ in range(3):
            for text in self.QUERIES:
                assert warehouse.answer(text) == evaluate(
                    parse(text), figure1_database.state()
                )
            warehouse.insert("Sale", [(f"Radio{round_}", "Paula")])
            figure1_database.insert("Sale", [(f"Radio{round_}", "Paula")])
        assert sorted(translated) == sorted(self.QUERIES)
        plans = RefreshCompiler.of(warehouse.spec)
        assert (plans.misses, plans.hits, len(plans)) == (3, 6, 3)
        assert warehouse.shards[3].translation_cache is plans


def star_setting():
    catalog = Catalog()
    catalog.relation("Customer", ("custkey", "segment"), key=("custkey",))
    catalog.relation("OrdersN", ("loc", "okey", "custkey"), key=("okey",))
    catalog.relation("OrdersS", ("loc", "okey", "custkey"), key=("okey",))
    catalog.add_check("OrdersN", parse_condition("loc = 'N'"))
    catalog.add_check("OrdersS", parse_condition("loc = 'S'"))
    fact = FactTable("Sales", "loc", {"N": parse("OrdersN"), "S": parse("OrdersS")})
    spec = star_specify(catalog, [fact], [View("Dim", parse("Customer"))])
    db = Database(catalog)
    db.load("Customer", [(1, "RETAIL"), (2, "CORP")])
    db.load("OrdersN", [("N", 10, 1)])
    db.load("OrdersS", [("S", 20, 1)])
    return spec, db


def assert_tracks_sources(warehouse, spec, db, step):
    """The warehouse equals its definitions evaluated over the mirror."""
    expected = evaluate_all(spec.definitions_over_sources(), db.state())
    for name, relation in warehouse.state.items():
        assert relation == expected[name], (step, name)


class TestSpecsCertifyRefuses:
    def test_star_spec_runs_fused_plans(self):
        spec, db = star_setting()
        with pytest.raises(CompileError):
            certify(spec)
        warehouse = Warehouse(spec)
        reference = Warehouse(spec)
        warehouse.initialize(db)
        reference.initialize(db)
        updates = three_masks(
            "OrdersN", ("loc", "okey", "custkey"), ("N", 11, 1), ("N", 12, 2)
        ) + three_masks("Customer", ("custkey", "segment"), (3, "RETAIL"), (4, "CORP"))
        for step, update in enumerate(updates):
            db.apply(update)
            assert warehouse.apply(update)
            reference.apply_full(update)
            assert warehouse.state == reference.state, step
            assert_tracks_sources(warehouse, spec, db, step)
        assert warehouse.reconstruct("OrdersN") == db["OrdersN"]
        # Two shapes, each in all three side masks.
        assert RefreshCompiler.of(spec).plan_count == 2 * len(MODES)

    def test_hybrid_with_virtual_complement(self, figure1_catalog, figure1_database):
        db = figure1_database
        spec = specify(figure1_catalog, [View("Sold", parse("Sale join Emp"))])
        hybrid = HybridWarehouse(spec, ["C_Emp"], source_access=lambda name: db[name])
        hybrid.initialize(db)
        full = Warehouse(spec)
        full.initialize(db)
        updates = three_masks(
            "Sale", ("item", "clerk"), ("Radio", "Paula"), ("Mixer", "Paula")
        ) + three_masks("Emp", ("clerk", "age"), ("Zoe", 40), ("Yann", 41))
        for step, update in enumerate(updates):
            db.apply(update)
            hybrid.apply(update)
            full.apply(update)
            assert "C_Emp" not in hybrid.state
            for name in hybrid.state:
                assert hybrid.state[name] == full.state[name], (step, name)
            assert_tracks_sources(hybrid, spec, db, step)
            assert hybrid.reconstruct("Emp") == db["Emp"], step
        assert hybrid.source_queries > 0

    def test_hybrid_fetches_only_when_a_program_reads_the_virtual_relation(self):
        instance = tpcd_instance(scale=0.3, seed=8)
        spec = specify(instance.catalog, instance.views)
        region = spec.complements["Region"].name
        hybrid = HybridWarehouse(
            spec, [region], source_access=lambda name: instance.database[name]
        )
        hybrid.initialize(instance.database)
        full = Warehouse(spec)
        full.initialize(instance.database)
        # No Part program, and no inverse it is normalized with, reads
        # C_Region: the refresh runs without a source round trip.
        update = instance.database.insert("Part", [(900, "Part#900", "Brand#9")])
        hybrid.apply(update)
        full.apply(update)
        assert hybrid.source_queries == 0
        # A new region does change C_Region (no nation refers to it yet).
        update = instance.database.insert("Region", [(900, "ATLANTIS")])
        hybrid.apply(update)
        full.apply(update)
        assert hybrid.source_queries > 0
        for name in hybrid.state:
            assert hybrid.state[name] == full.state[name], name
        assert hybrid.reconstruct("Region") == instance.database["Region"]

    def test_self_maintainable_spec(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        views = [View("Seniors", parse("sigma[age > 30](Emp)"))]
        assert not self_maintenance_analysis(catalog, views).needs_complement
        spec = specify(catalog, views)
        db = Database(catalog)
        db.load("Emp", [("Mary", 23), ("Paula", 32)])
        warehouse = Warehouse(spec)
        warehouse.initialize(db)
        updates = three_masks("Emp", ("clerk", "age"), ("Ken", 55), ("Lena", 19))
        for step, update in enumerate(updates):
            db.apply(update)
            assert warehouse.apply(update)
            assert_tracks_sources(warehouse, spec, db, step)
            assert warehouse.relation("Seniors") == evaluate(
                parse("sigma[age > 30](Emp)"), db.state()
            )
        assert RefreshCompiler.of(spec).compiles == 3
