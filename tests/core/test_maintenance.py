"""Unit tests for :mod:`repro.core.maintenance`."""

from __future__ import annotations

import random

import pytest

from repro import (
    Catalog,
    Database,
    Relation,
    Update,
    View,
    WarehouseError,
    complement_thm22,
    parse,
)
from repro.core.independence import warehouse_state
from repro.core.maintenance import (
    delta_bindings,
    full_recompute_state,
    maintenance_expressions,
    normalize_update,
    refresh_state,
)


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("R", ("a", "b"))
    catalog.relation("S", ("b", "c"), key=("b",))
    return catalog


@pytest.fixture
def spec(catalog):
    return complement_thm22(
        catalog,
        [View("V", parse("R join S")), View("P", parse("pi[b, c](sigma[c = 1](S))"))],
    )


@pytest.fixture
def initial_state():
    return {
        "R": Relation(("a", "b"), [(1, 2), (3, 4)]),
        "S": Relation(("b", "c"), [(2, 1), (4, 0)]),
    }


class TestPlans:
    def test_plan_covers_all_stored_relations(self, spec):
        plan = maintenance_expressions(spec, ["R"])
        assert set(plan.expressions) == set(spec.warehouse_names())

    def test_plan_references_allowed_names_only(self, spec):
        plan = maintenance_expressions(spec, ["R", "S"])
        allowed = set(spec.warehouse_names()) | {
            "R__ins",
            "R__del",
            "S__ins",
            "S__del",
        }
        for exprs in plan.expressions.values():
            assert (
                exprs.inserts.relation_names() | exprs.deletes.relation_names()
            ) <= allowed

    def test_unknown_relation_rejected(self, spec):
        with pytest.raises(WarehouseError):
            maintenance_expressions(spec, ["Ghost"])

    def test_insert_only_specialization_drops_delete_branches(self, spec):
        plan = maintenance_expressions(spec, ["S"], insert_only=True)
        for exprs in plan.expressions.values():
            assert "S__del" not in str(exprs.inserts)
            assert "S__del" not in str(exprs.deletes)

    def test_describe(self, spec):
        plan = maintenance_expressions(spec, ["R"])
        text = plan.describe()
        assert "V'" in text and "updated: ['R']" in text


class TestNormalization:
    def test_normalize_against_reconstruction(self, spec, initial_state):
        warehouse = warehouse_state(spec, initial_state)
        update = Update.insert("R", ("a", "b"), [(1, 2), (9, 9)])
        effective = normalize_update(spec, warehouse, update)
        assert effective.delta_for("R").inserts.to_set() == {(9, 9)}

    def test_unknown_relation_in_update(self, spec, initial_state):
        warehouse = warehouse_state(spec, initial_state)
        with pytest.raises(WarehouseError):
            normalize_update(spec, warehouse, Update.insert("Ghost", ("x",), [(1,)]))

    def test_delta_bindings_names(self, spec, initial_state):
        update = Update.insert("R", ("a", "b"), [(9, 9)])
        bindings = delta_bindings(update, spec.source_scope())
        assert set(bindings) == {"R__ins", "R__del"}


class TestRefresh:
    def test_refresh_matches_recompute_on_stream(self, catalog, spec, initial_state):
        db = Database(catalog, initial_state)
        warehouse = warehouse_state(spec, initial_state)
        rng = random.Random(0)
        for step in range(15):
            relation = rng.choice(["R", "S"])
            schema = catalog[relation]
            if rng.random() < 0.6:
                rows = [tuple(rng.randrange(5) for _ in schema.attributes)]
                update = Update.insert(relation, schema.attributes, rows)
            else:
                existing = sorted(db[relation].rows, key=repr)
                if not existing:
                    continue
                update = Update.delete(
                    relation, schema.attributes, [rng.choice(existing)]
                )
            try:
                db.apply(update)
            except Exception:
                continue  # constraint-violating candidate; sources reject it
            warehouse, _ = refresh_state(spec, warehouse, update)
            assert warehouse == warehouse_state(spec, db.state()), step

    def test_refresh_returns_applied_deltas(self, spec, initial_state):
        warehouse = warehouse_state(spec, initial_state)
        update = Update.insert("S", ("b", "c"), [(7, 1)])
        new_state, applied = refresh_state(spec, warehouse, update)
        assert "P" in applied  # sigma[c = 1] gains (7, 1)
        assert applied["P"].inserts.to_set() == {(7, 1)}

    def test_noop_update_returns_same_content(self, spec, initial_state):
        warehouse = warehouse_state(spec, initial_state)
        update = Update.insert("R", ("a", "b"), [(1, 2)])  # already present
        new_state, applied = refresh_state(spec, warehouse, update)
        assert applied == {}
        assert new_state == warehouse

    def test_full_recompute_baseline(self, catalog, spec, initial_state):
        db = Database(catalog, initial_state)
        warehouse = warehouse_state(spec, initial_state)
        update = db.insert("S", [(9, 1)])
        full = full_recompute_state(spec, warehouse, update)
        assert full == warehouse_state(spec, db.state())
