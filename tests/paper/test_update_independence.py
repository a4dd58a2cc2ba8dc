"""E7 — Section 4 / Theorem 4.1 / Example 4.1: update independence.

Checks the commuting diagram of Figure 3 (``w' = W(d')``) on concrete
update streams, the derived maintenance expressions of Example 4.1, and the
equivalence of the incremental engine with the full-recompute baseline.
"""

from __future__ import annotations

import random

import pytest

from repro import (
    Database,
    Relation,
    Update,
    View,
    Warehouse,
    parse,
)
from repro.algebra.deltas import ins_name
from repro.core.independence import warehouse_state
from repro.core.maintenance import (
    full_recompute_state,
    maintenance_expressions,
    refresh_state,
)


@pytest.fixture
def warehouse_ri(figure1_catalog_ri):
    return Warehouse.specify(
        figure1_catalog_ri, [View("Sold", parse("Sale join Emp"))]
    )


@pytest.fixture
def loaded(figure1_catalog_ri, warehouse_ri):
    db = Database(figure1_catalog_ri)
    db.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    db.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
    warehouse_ri.initialize(db)
    return db, warehouse_ri


class TestExample41Expressions:
    """The symbolic maintenance expressions for an insertion set s into Sale."""

    def test_sold_insert_expression(self, warehouse_ri):
        plan = maintenance_expressions(
            warehouse_ri.spec, ["Sale"], insert_only=True
        )
        inserts = str(plan.expressions["Sold"].inserts)
        # Paper: Sold' = Sold ∪ (s join (pi_{clerk,age}(Sold) ∪ C1)); our C1
        # is named C_Emp and s is Sale__ins.
        assert inserts == (
            f"{ins_name('Sale')} join (C_Emp union pi[clerk, age](Sold))"
        )

    def test_sold_insert_no_deletion_side(self, warehouse_ri):
        plan = maintenance_expressions(
            warehouse_ri.spec, ["Sale"], insert_only=True
        )
        deletes = plan.expressions["Sold"].deletes
        # Insertions into Sale never delete Sold tuples.
        from repro.algebra.expressions import Empty

        assert isinstance(deletes, Empty)

    def test_expressions_reference_warehouse_only(self, warehouse_ri):
        plan = maintenance_expressions(warehouse_ri.spec, ["Sale"])
        allowed = set(warehouse_ri.spec.warehouse_names()) | {
            "Sale__ins",
            "Sale__del",
        }
        for name, exprs in plan.expressions.items():
            names = exprs.inserts.relation_names() | exprs.deletes.relation_names()
            assert names <= allowed, (name, names)

    def test_c1_shrinks_on_insert(self, loaded):
        db, wh = loaded
        assert wh.relation("C_Emp").to_set() == {("Paula", 32)}
        wh.apply(db.insert("Sale", [("Computer", "Paula")]))
        assert wh.relation("C_Emp").to_set() == frozenset()


class TestCommutingDiagram:
    """w' computed from (w, u) equals W(d') — Figure 3."""

    def scripted_updates(self, db: Database):
        yield db.insert("Sale", [("Computer", "Paula")])
        yield db.insert("Emp", [("Zoe", 41), ("Abe", 19)])
        yield db.insert("Sale", [("radio", "Zoe"), ("TV set", "Zoe")])
        yield db.delete("Sale", [("VCR", "Mary"), ("PC", "John")])
        yield db.delete("Emp", [("Abe", 19)])

    def test_incremental_matches_mapping(self, loaded):
        db, wh = loaded
        for update in self.scripted_updates(db):
            wh.apply(update)
            assert wh.state == warehouse_state(wh.spec, db.state())

    def test_incremental_matches_full_recompute(self, loaded):
        db, wh = loaded
        state = dict(wh.state)
        for update in self.scripted_updates(db):
            incremental, _, _ = refresh_state(wh.spec, state, update)
            full = full_recompute_state(wh.spec, state, update)
            assert incremental == full
            state = incremental

    def test_base_reconstruction_tracks_sources(self, loaded):
        db, wh = loaded
        for update in self.scripted_updates(db):
            wh.apply(update)
        assert wh.reconstruct("Sale") == db["Sale"]
        assert wh.reconstruct("Emp") == db["Emp"]


class TestEffectiveness:
    def test_redundant_insert_is_noop(self, loaded):
        db, wh = loaded
        before = dict(wh.state)
        # (TV set, Mary) is already present; sources would not even report
        # it, but a noisy source must not corrupt the warehouse.
        update = Update.insert("Sale", ("item", "clerk"), [("TV set", "Mary")])
        wh.apply(update)
        assert wh.state == before

    def test_phantom_delete_is_noop(self, loaded):
        db, wh = loaded
        before = dict(wh.state)
        update = Update.delete("Sale", ("item", "clerk"), [("ghost", "Nobody")])
        wh.apply(update)
        assert wh.state == before

    def test_mixed_transaction(self, loaded):
        db, wh = loaded
        update = Update.of(
            *Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            *Update.delete("Sale", ("item", "clerk"), [("VCR", "Mary")]),
        )
        db.apply(update)
        wh.apply(update)
        assert wh.state == warehouse_state(wh.spec, db.state())


class TestMultiRelationUpdates:
    def test_simultaneous_update_of_both_relations(self, loaded):
        db, wh = loaded
        update = Update.of(
            *Update.insert("Emp", ("clerk", "age"), [("Zoe", 41)]),
            *Update.insert("Sale", ("item", "clerk"), [("radio", "Zoe")]),
        )
        db.apply(update)
        wh.apply(update)
        assert wh.state == warehouse_state(wh.spec, db.state())
        assert ("radio", "Zoe", 41) in wh.relation("Sold")
