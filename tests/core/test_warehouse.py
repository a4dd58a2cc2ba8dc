"""Unit tests for :mod:`repro.core.warehouse` (the runtime)."""

from __future__ import annotations

import pytest

from repro import (
    Catalog,
    Database,
    Relation,
    Update,
    View,
    Warehouse,
    WarehouseError,
    evaluate,
    parse,
)

@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


@pytest.fixture
def db(catalog) -> Database:
    db = Database(catalog)
    db.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    db.load("Sale", [("TV", "Mary"), ("PC", "John")])
    return db


@pytest.fixture
def warehouse(catalog, db) -> Warehouse:
    wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
    wh.initialize(db)
    return wh


class TestLifecycle:
    def test_uninitialized_access_raises(self, catalog):
        wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        with pytest.raises(WarehouseError):
            wh.state
        with pytest.raises(WarehouseError):
            wh.answer("Sale")

    def test_initialize_from_mapping(self, catalog):
        wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        wh.initialize(
            {
                "Sale": Relation(("item", "clerk"), [("TV", "Mary")]),
                "Emp": Relation(("clerk", "age"), [("Mary", 23)]),
            }
        )
        assert wh.relation("Sold").to_set() == {("TV", "Mary", 23)}

    def test_storage_accounting(self, warehouse):
        by_relation = warehouse.storage_by_relation()
        assert by_relation["Sold"] == 2
        assert warehouse.storage_rows() == sum(by_relation.values())

    def test_unknown_relation_access(self, warehouse):
        with pytest.raises(WarehouseError):
            warehouse.relation("Ghost")

    def test_repr_states(self, catalog, warehouse):
        fresh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        assert "uninitialized" in repr(fresh)
        assert "rows" in repr(warehouse)


class TestQueries:
    def test_answer_accepts_strings(self, warehouse):
        result = warehouse.answer("pi[clerk](Sale) union pi[clerk](Emp)")
        assert ("Paula",) in result

    def test_translate_accepts_strings(self, warehouse):
        translated = warehouse.translate("pi[clerk](Sale)")
        assert translated.relation_names() <= set(warehouse.spec.warehouse_names())

    def test_reconstruct_all(self, warehouse, db):
        rebuilt = warehouse.reconstruct_all()
        assert rebuilt["Sale"] == db["Sale"]
        assert rebuilt["Emp"] == db["Emp"]


class TestUpdates:
    def test_insert_convenience(self, warehouse, db):
        db.insert("Sale", [("Radio", "Paula")])
        applied = warehouse.insert("Sale", [("Radio", "Paula")])
        assert "Sold" in applied
        assert warehouse.relation("Sold") == evaluate(
            parse("Sale join Emp"), db.state()
        )

    def test_delete_convenience(self, warehouse, db):
        db.delete("Sale", [("TV", "Mary")])
        warehouse.delete("Sale", [("TV", "Mary")])
        assert warehouse.relation("Sold") == evaluate(
            parse("Sale join Emp"), db.state()
        )

    def test_apply_full_equals_apply(self, catalog, db):
        incremental = Warehouse.specify(
            catalog, [View("Sold", parse("Sale join Emp"))]
        )
        full = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        incremental.initialize(db)
        full.initialize(db)
        update = db.insert("Emp", [("Zoe", 40)])
        incremental.apply(update)
        full.apply_full(update)
        assert incremental.state == full.state


class TestDescribe:
    def test_describe_shows_spec(self, warehouse):
        assert "inverses" in warehouse.describe()


class TestQuerySanitizer:
    """REPRO_CHECK_INVARIANTS=1: answer() cross-checks its traced reads."""

    def armed(self, catalog, db, monkeypatch) -> Warehouse:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        wh.initialize(db)
        return wh

    def test_honest_answers_pass(self, catalog, db, monkeypatch):
        wh = self.armed(catalog, db, monkeypatch)
        assert wh.answer("Sale").to_set() == {("TV", "Mary"), ("PC", "John")}
        assert wh.answer("pi[age](Emp)").to_set() == {(23,), (25,), (32,)}

    def test_poisoned_cached_plan_fails_loudly(
        self, catalog, db, monkeypatch, poison_plan
    ):
        # A corrupted plan-table entry routes Emp through C_Sale — outside the
        # translation's static read set. The sanitizer recomputes that set
        # from the spec, so the poisoned plan cannot self-certify.
        wh = self.armed(catalog, db, monkeypatch)
        poison_plan(wh.spec, "Emp", "pi[clerk](C_Sale)")
        with pytest.raises(WarehouseError, match="query sanitizer"):
            wh.answer("Emp")

    def test_same_poison_goes_unnoticed_when_disarmed(
        self, catalog, db, monkeypatch, poison_plan
    ):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
        wh.initialize(db)
        poison_plan(wh.spec, "Emp", "pi[clerk](C_Sale)")
        wh.answer("Emp")  # wrong answer, no alarm — the sanitizer has teeth

    def test_sanitizer_composes_with_tracing(self, catalog, db, monkeypatch):
        wh = self.armed(catalog, db, monkeypatch)
        wh.enable_tracing()
        wh.answer("Sale")
        assert wh.last_trace("answer") is not None
        # The throwaway sanitize buffer was detached from the tracer again.
        assert len(wh.tracer.collectors) == 1


class TestTranslationCache:
    def test_repeated_answers_hit_the_cache(self, warehouse):
        warehouse.answer("Sale")
        warehouse.answer("Sale")
        warehouse.answer("pi[clerk](Sale)")
        cache = warehouse.translation_cache
        assert cache.hits == 1
        assert cache.misses == 2
        assert len(cache) == 2

    def test_plans_live_on_the_spec_and_are_never_evicted(self, warehouse):
        # Two warehouses on one spec object share plans and counters; a
        # second spec over the same views has its own table.
        twin = Warehouse(warehouse.spec)
        twin.initialize(warehouse.reconstruct_all())
        warehouse.answer("Sale")
        twin.answer("Sale")
        assert twin.translation_cache is warehouse.translation_cache
        cache = warehouse.translation_cache
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        other = Warehouse.specify(warehouse.spec.catalog, warehouse.spec.views)
        assert len(other.translation_cache) == 0
        warehouse.insert("Sale", [("Radio", "Mary")])
        warehouse.answer("Sale")
        assert (cache.hits, cache.misses, len(cache)) == (2, 1, 1)

    def test_answers_leave_the_evaluation_cache_alone(self, warehouse):
        # The cross-update EvaluationCache serves refreshes and
        # reconstruct(); answers would fill it with one entry per literal.
        warehouse.insert("Sale", [("Radio", "Mary")])
        entries = len(warehouse.evaluation_cache)
        for item in ("TV", "PC", "Radio", "Car"):
            warehouse.answer(f"pi[age](sigma[item = '{item}'](Sale) join Emp)")
            warehouse.answer(f"sigma[item = '{item}'](Sale) minus Sale")
        assert len(warehouse.evaluation_cache) == entries
