"""E8 — Section 4 (end): select-only views need no complement at all.

The paper closes Section 4 with ``W = sigma_c(R)``: update-independent with
zero auxiliary storage. This benchmark compares maintaining such a
warehouse (a) through the generic complement machinery and (b) through the
direct paper calculation ``w' = w ∪ sigma_c(Δr)`` / ``w' = w - sigma_c(Δr)``,
and reports auxiliary storage for both.

Expected shape: identical results; the complement machinery stores C_R
(everything failing the selection) while the direct route stores nothing.
"""

from __future__ import annotations

import random

import pytest

from repro import Relation, Update, View, Warehouse, evaluate, parse
from repro.analysis.dataflow import views_only_read_sets
from repro.core.maintenance import refresh_state
from repro.core.selfmaint import is_select_only_update_independent
from repro.schema import Catalog

from _helpers import print_table

CONDITION = "age >= 40"


def build(n: int):
    catalog = Catalog()
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    rng = random.Random(0)
    rows = [(f"clerk{i}", rng.randint(18, 65)) for i in range(n)]
    state = {"Emp": Relation(("clerk", "age"), rows)}
    view = View("Senior", parse(f"sigma[{CONDITION}](Emp)"))
    return catalog, state, view


def make_update(n: int, batch: int):
    rng = random.Random(1)
    return Update.insert(
        "Emp", ("clerk", "age"), [(f"new{i}", rng.randint(18, 65)) for i in range(batch)]
    )


SIZES = [200, 1000]


@pytest.mark.parametrize("n", SIZES)
def test_complement_machinery(benchmark, n):
    catalog, state, view = build(n)
    wh = Warehouse.specify(catalog, [view])
    wh.initialize(state)
    update = make_update(n, 10)
    warehouse = dict(wh.state)
    benchmark(lambda: refresh_state(wh.spec, warehouse, update))


@pytest.mark.parametrize("n", SIZES)
def test_direct_selection_maintenance(benchmark, n):
    catalog, state, view = build(n)
    sigma = view.definition
    materialized = evaluate(sigma, state)
    update = make_update(n, 10)
    delta = update.delta_for("Emp")

    def run():
        gained = evaluate(sigma, {"Emp": delta.inserts})
        lost = evaluate(sigma, {"Emp": delta.deletes})
        return materialized.difference(lost).union(gained)

    benchmark(run)


def test_report_series(benchmark):
    rows = []
    for n in SIZES:
        catalog, state, view = build(n)
        assert is_select_only_update_independent(view, catalog)
        # The static prover certifies the same guarantee: maintained
        # without complement, this view reads no source for any update.
        assert views_only_read_sets(catalog, [view]).update_independent
        wh = Warehouse.specify(catalog, [view])
        wh.initialize(state)
        update = make_update(n, 10)

        new_state, _ = refresh_state(wh.spec, wh.state, update)

        sigma = view.definition
        delta = update.delta_for("Emp")
        direct = (
            evaluate(sigma, state)
            .difference(evaluate(sigma, {"Emp": delta.deletes}))
            .union(evaluate(sigma, {"Emp": delta.inserts}))
        )
        assert new_state["Senior"] == direct  # the paper's calculation

        auxiliary = sum(
            len(new_state[name]) for name in wh.spec.complement_names()
        )
        rows.append((n, len(direct), auxiliary, 0))
    print_table(
        "E8 (Section 4 end): select-only views — auxiliary storage",
        ("n", "|view|", "aux rows (complement route)", "aux rows (direct route)"),
        rows,
    )
    assert all(row[2] > 0 for row in rows)  # the complement stores the rest

    catalog, state, view = build(SIZES[-1])
    sigma = view.definition
    update = make_update(SIZES[-1], 10)
    delta = update.delta_for("Emp")
    materialized = evaluate(sigma, state)
    benchmark(
        lambda: materialized.union(evaluate(sigma, {"Emp": delta.inserts}))
    )
