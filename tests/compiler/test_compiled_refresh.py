"""The one refresh path vs full recomputation, in lockstep.

:func:`repro.core.maintenance.refresh_state` interprets the fused plan of
each update's shape and side mask. It is only admissible because it
computes exactly ``w' = W(u(W^{-1}(w)))`` — these tests replay real update
streams through it and through the plan-free
:func:`~repro.core.maintenance.full_recompute_state`, assert equality
after every step, and pin the rest of its contract: applied deltas only
for touched relations, identical objects carried over otherwise, and one
derivation per ``(shape, side mask)`` in the per-spec plan cache.
"""

from __future__ import annotations

import random

import pytest

from repro import Update, specify
from repro.algebra.evaluator import evaluate_all
from repro.compiler import RefreshCompiler
from repro.core.maintenance import full_recompute_state, refresh_state
from repro.errors import WarehouseError
from repro.workloads import tpcd_instance
from repro.workloads.tpcd import order_insert_rows


@pytest.fixture
def figure1_spec(figure1_catalog, sold_view):
    return specify(figure1_catalog, [sold_view], method="prop22")


@pytest.fixture
def figure1_state(figure1_spec, figure1_database):
    return evaluate_all(
        figure1_spec.definitions_over_sources(), figure1_database.state()
    )


class TestLockstepEquality:
    def test_figure1_random_stream(self, figure1_spec, figure1_state):
        state = figure1_state
        rng = random.Random(4)
        items = ["TV set", "VCR", "PC", "Radio", "Camera"]
        clerks = ["Mary", "John", "Paula", "Ken"]
        for step in range(30):
            relation, attrs = rng.choice(
                [("Sale", ("item", "clerk")), ("Emp", ("clerk", "age"))]
            )
            if relation == "Sale":
                rows = [(rng.choice(items), rng.choice(clerks))]
            else:
                rows = [(rng.choice(clerks), rng.randrange(20, 60))]
            maker = Update.insert if rng.random() < 0.6 else Update.delete
            update = maker(relation, attrs, rows)
            expected = full_recompute_state(figure1_spec, state, update)
            state, applied = refresh_state(figure1_spec, state, update)
            assert state == expected, step
            for name, delta in applied.items():
                assert delta.inserts or delta.deletes, (step, name)

    def test_tpcd_stream(self):
        inst = tpcd_instance(scale=0.5, seed=11)
        spec = specify(inst.catalog, inst.views)
        state = evaluate_all(spec.definitions_over_sources(), inst.database.state())
        rng = random.Random(5)
        for _ in range(4):
            orders, lines = order_insert_rows(rng, inst.database, count=2)
            for update in (
                inst.database.insert("Orders", orders),
                inst.database.insert("Lineitem", lines),
            ):
                expected = full_recompute_state(spec, state, update)
                state, _ = refresh_state(spec, state, update)
                assert state == expected

    def test_untouched_relations_keep_identity(self, figure1_spec, figure1_state):
        update = Update.insert("Sale", ("item", "clerk"), [("Radio", "Paula")])
        new_state, applied = refresh_state(figure1_spec, figure1_state, update)
        assert applied
        for name in figure1_state:
            if name not in applied:
                # The refresh_state contract: relations the update does not
                # change are carried over as the *same object*, preserving
                # their attached caches/indexes.
                assert new_state[name] is figure1_state[name]

    def test_noop_update_returns_copy(self, figure1_spec, figure1_state):
        noop = Update.delete("Sale", ("item", "clerk"), [("Nothing", "Nobody")])
        new_state, applied = refresh_state(figure1_spec, figure1_state, noop)
        assert applied == {}
        assert new_state is not figure1_state
        assert new_state == figure1_state


class TestPlanCache:
    def test_shapes_compile_once(self, figure1_spec, figure1_state):
        plans = RefreshCompiler.of(figure1_spec)
        assert plans is RefreshCompiler.of(figure1_spec)
        state = figure1_state
        updates = [
            Update.insert("Sale", ("item", "clerk"), [("Radio", "Ken")]),
            Update.insert("Emp", ("clerk", "age"), [("Ken", 55)]),
            Update.insert("Sale", ("item", "clerk"), [("Camera", "Ken")]),
            Update.insert("Sale", ("item", "clerk"), [("Phone", "Mary")]),
            Update.insert("Emp", ("clerk", "age"), [("Lena", 41)]),
            Update.delete("Sale", ("item", "clerk"), [("Phone", "Mary")]),
        ]
        for update in updates:
            state, _ = refresh_state(figure1_spec, state, update)
        # Three (shape, side mask) pairs over six refreshes.
        assert plans.compiles == 3
        assert plans.plan_hits == 3
        assert plans.plan_count == 3
        assert set(plans.cached_shapes()) == {
            frozenset({"Sale"}),
            frozenset({"Emp"}),
        }
        plan = plans.program_for(frozenset({"Sale"}), "delete-only")
        assert plan.mode == "delete-only" and plans.compiles == 3

    def test_unknown_relation_rejected(self, figure1_spec, figure1_state):
        bogus = Update.insert("Ghost", ("x",), [(1,)])
        with pytest.raises(WarehouseError):
            refresh_state(figure1_spec, figure1_state, bogus)
        with pytest.raises(WarehouseError):
            RefreshCompiler.of(figure1_spec).refresh(figure1_state, bogus)
