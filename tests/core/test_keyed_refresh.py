"""The keyed projection rule on warehouses, and the sanitizer that guards it.

A ``thm22`` spec derives its plans with the catalog's keys
(:func:`repro.core.maintenance.maintenance_expressions`): a projection that
keeps a key of its child takes its deltas from the child's deltas alone, so
a delete no longer re-joins the fact table to decide whether a deleted row
is still derivable. The rule is exact only on states that satisfy the keys,
which ``REPRO_CHECK_INVARIANTS=1`` makes checkable.
"""

from __future__ import annotations

import pytest

from repro import Update, Warehouse, WarehouseError
from repro.algebra.evaluator import evaluate_all
from repro.compiler import fused_plan
from repro.core.maintenance import maintenance_expressions
from repro.storage.relation import Relation
from repro.storage.update import Delta
from repro.workloads import tpcd_instance


@pytest.fixture(scope="module")
def tpcd():
    return tpcd_instance(scale=2.0, seed=7)


def tpcd_warehouse(instance):
    warehouse = Warehouse.specify(instance.catalog, instance.views)
    warehouse.initialize(instance.database)
    return warehouse


def test_contradictory_side_flags_raise_once_for_every_caller(tpcd):
    warehouse = Warehouse.specify(tpcd.catalog, tpcd.views)
    both = dict(insert_only=True, delete_only=True)
    with pytest.raises(ValueError, match="mutually exclusive"):
        maintenance_expressions(warehouse.spec, ["Orders"], **both)
    with pytest.raises(ValueError, match="mutually exclusive"):
        warehouse.maintenance_plan(["Orders"], **both)
    with pytest.raises(ValueError, match="mutually exclusive"):
        fused_plan(warehouse.spec, ["Orders"], **both)


def test_delete_only_fact_program_reads_no_new_value(tpcd):
    warehouse = Warehouse.specify(tpcd.catalog, tpcd.views)
    plan = fused_plan(warehouse.spec, ["Lineitem"], delete_only=True)
    program = plan.program_for("SalesFact")
    # pi_Z(D) alone: the key (orderkey, linenumber) survives the projection.
    assert "__new" not in str(program.deletes)
    assert "minus" not in str(program.deletes)


def test_modifying_a_projected_away_attribute_leaves_the_fact_view(tpcd):
    warehouse = tpcd_warehouse(tpcd)
    customers = tpcd.database["Customer"]
    ordering = {row[1] for row in tpcd.database["Orders"].rows}
    old = min(row for row in customers.rows if row[0] in ordering)
    new = (old[0], "renamed", old[2], old[3])
    before = warehouse.relation("SalesFact")
    applied = warehouse.apply(
        Update.modify("Customer", customers.attributes, [old], [new])
    )
    # cname is projected away: every joined row is deleted and re-inserted
    # with the same projection, so SalesFact does not change — a rule that
    # took pi_Z(D) alone for its deletes would drop the customer's sales.
    assert "CustomerDim" in applied
    assert "SalesFact" not in applied
    assert warehouse.relation("SalesFact") is before


def test_whole_order_delete_joins_the_delta_not_the_fact_table(tpcd):
    warehouse = tpcd_warehouse(tpcd)
    database = tpcd.database
    order = [row for row in database["Orders"].rows if row[0] == 17]
    lines = [row for row in database["Lineitem"].rows if row[0] == 17]
    update = Update.of(
        Delta("Lineitem", deletes=Relation(database["Lineitem"].attributes, lines)),
        Delta("Orders", deletes=Relation(database["Orders"].attributes, order)),
    )
    warehouse.enable_tracing()
    warehouse.apply(update)
    delta_rows = len(order) + len(lines)
    assert delta_rows == 4
    assert warehouse.last_refresh_stats.rows_joined <= 4 * delta_rows
    # Normalisation reads the inverses at the delta's rows, not in full.
    normalize = warehouse.last_trace().find("normalize_update")
    read = sum(s.attributes["rows_out"] for s in normalize.walk() if s.name == "read")
    assert read <= 4 * delta_rows
    sources = dict(database.state())
    for delta in update:
        sources[delta.relation] = delta.apply_to(sources[delta.relation])
    expected = evaluate_all(warehouse.spec.definitions_over_sources(), sources)
    assert warehouse.state == expected


class TestKeySanitizer:
    REUSED_CLERK = ("Mary", 99)

    def test_thm22_warehouse_refuses_a_key_breaking_insert(
        self, monkeypatch, figure1_catalog, figure1_database, sold_view
    ):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        warehouse = Warehouse.specify(figure1_catalog, [sold_view])
        warehouse.initialize(figure1_database)
        version, state = warehouse.version, warehouse.state
        with pytest.raises(WarehouseError, match="key sanitizer.*Emp"):
            warehouse.insert("Emp", [self.REUSED_CLERK])
        assert warehouse.version == version
        assert warehouse.state is state
        # A key-respecting update still goes through.
        assert warehouse.insert("Emp", [("Ken", 55)])

    def test_switched_off_the_broken_key_goes_unnoticed(
        self, monkeypatch, figure1_catalog, figure1_database, sold_view
    ):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        warehouse = Warehouse.specify(figure1_catalog, [sold_view])
        warehouse.initialize(figure1_database)
        warehouse.insert("Emp", [self.REUSED_CLERK])
        # Committed: only an explicit audit finds what the refresh trusted.
        assert any("key" in problem for problem in warehouse.audit())

    def test_prop22_warehouse_is_not_checked(
        self, monkeypatch, figure1_catalog, figure1_database, sold_view
    ):
        # prop22 plans are exact on every state, so they need no key.
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
        warehouse.initialize(figure1_database)
        assert warehouse.insert("Emp", [self.REUSED_CLERK])
