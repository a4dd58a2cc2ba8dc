"""Unit tests for :mod:`repro.core.hybrid` (Section 6's trade-off)."""

from __future__ import annotations

import pytest

from repro import (
    Catalog,
    Database,
    View,
    Warehouse,
    WarehouseError,
    evaluate,
    parse,
    specify,
)
from repro.core.hybrid import HybridWarehouse


@pytest.fixture
def setting():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    db = Database(catalog)
    db.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    db.load("Sale", [("TV", "Mary"), ("PC", "John")])
    spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
    return catalog, db, spec


def make_hybrid(db, spec, virtual):
    return HybridWarehouse(spec, virtual, source_access=lambda name: db[name])


class TestConstruction:
    def test_unknown_virtual_rejected(self, setting):
        _, db, spec = setting
        with pytest.raises(WarehouseError):
            make_hybrid(db, spec, ["Nope"])

    def test_virtual_complement_not_stored(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        assert "C_Emp" not in hybrid.state
        assert "C_Sale" in hybrid.state

    def test_storage_strictly_smaller(self, setting):
        _, db, spec = setting
        full = Warehouse(spec)
        full.initialize(db)
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        assert hybrid.storage_rows() < full.storage_rows()


class TestOperations:
    def test_answers_match_full_warehouse(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        query = "pi[clerk](Sale) union pi[clerk](Emp)"
        assert hybrid.answer(query) == evaluate(parse(query), db.state())

    def test_source_queries_counted(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        assert hybrid.source_queries == 0
        hybrid.answer("pi[clerk](Emp)")  # needs C_Emp -> touches sources
        assert hybrid.source_queries > 0

    def test_queries_avoiding_virtual_stay_free(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        hybrid.answer("Sale")  # Sale's inverse uses C_Sale + Sold only
        assert hybrid.source_queries == 0

    def test_updates_maintained_correctly(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        full = Warehouse(spec)
        full.initialize(db)

        update = db.insert("Sale", [("Radio", "Paula")])
        hybrid.apply(update)
        full.apply(update)
        for name in hybrid.state:
            assert hybrid.state[name] == full.state[name], name
        assert hybrid.reconstruct("Emp") == db["Emp"]

    def test_update_stream_tracks_sources(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, ["C_Emp"])
        hybrid.initialize(db)
        for update in (
            db.insert("Emp", [("Zoe", 40)]),
            db.insert("Sale", [("Mixer", "Zoe")]),
            db.delete("Sale", [("TV", "Mary")]),
            db.delete("Emp", [("Paula", 32)]),
        ):
            hybrid.apply(update)
        assert hybrid.relation("Sold") == evaluate(
            parse("Sale join Emp"), db.state()
        )
        assert hybrid.reconstruct("Sale") == db["Sale"]

    def test_no_virtual_behaves_like_plain_warehouse(self, setting):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, [])
        hybrid.initialize(db)
        update = db.insert("Sale", [("Radio", "Paula")])
        hybrid.apply(update)
        assert hybrid.source_queries == 0
        full = Warehouse(spec)
        full.initialize(db.copy())
        # db already has the update; rebuild from scratch for comparison.
        full.initialize(db)
        assert hybrid.state == full.state


class TestServingPath:
    """A hybrid refresh commits, and a hybrid answer is counted and traced,
    exactly as a plain warehouse's — it differs in the state handed over."""

    @pytest.mark.parametrize("virtual", [[], ["C_Emp"]], ids=["none", "C_Emp"])
    def test_apply_commits_and_answer_is_observed(self, setting, virtual):
        _, db, spec = setting
        hybrid = make_hybrid(db, spec, virtual)
        hybrid.initialize(db)
        hybrid.enable_tracing()
        version, before = hybrid.version, hybrid.snapshot()

        applied = hybrid.apply(db.insert("Sale", [("Radio", "Paula")]))

        assert hybrid.version == version + 1
        after = hybrid.snapshot()
        assert after is not before
        assert after.state() == hybrid.state
        assert ("Radio", "Paula", 32) in after.relation("Sold").rows
        assert not set(applied) & set(virtual)
        assert hybrid.metrics.value("warehouse.refreshes") == 1
        assert "refresh trace" in hybrid.explain(name="refresh")

        answer = hybrid.answer("pi[clerk](Emp)")
        assert answer == evaluate(parse("pi[clerk](Emp)"), db.state())
        assert hybrid.metrics.value("warehouse.queries") == 1
        assert hybrid.last_trace("answer") is not None
        assert hybrid.audit() == []
