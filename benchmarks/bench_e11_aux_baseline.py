"""E11 — Section 1 comparison: complements vs [18]-style auxiliary views.

The paper positions its complement-first design against Quass et al.'s
auxiliary-view extraction. This benchmark quantifies the storage each route
needs for self-maintainability on three settings:

* Figure 1 without constraints — auxiliaries are narrower (projection), the
  complement stores full-width leftovers;
* Figure 1 with referential integrity — the complement collapses (C_Sale
  proven empty, C_Emp holds only clerk-less employees) while the auxiliary
  route cannot exploit the IND at all (the paper's stated advantage);
* the TPC-D SalesFact view — foreign keys empty most complements.

Also times the insert-delta evaluation of both routes.
"""

from __future__ import annotations

import random

import pytest

from repro import Relation, Update, View, Warehouse, complement_thm22, parse
from repro.core.auxviews import auxiliary_views
from repro.core.independence import warehouse_state
from repro.core.maintenance import refresh_state
from repro.algebra.evaluator import evaluate
from repro.workloads import tpcd_instance

from _helpers import figure1_catalog, figure1_database, print_table, sold_view


def complement_storage(spec, state) -> int:
    image = warehouse_state(spec, state)
    return sum(len(image[name]) for name in spec.complement_names())


def figure1_setting(with_ri: bool):
    catalog = figure1_catalog(with_ri=with_ri)
    db = figure1_database(catalog, n_emps=200, sales_per_emp=4)
    view = sold_view()
    return catalog, db, view


@pytest.mark.parametrize("with_ri", [False, True], ids=["no-ri", "ri"])
def test_aux_insert_delta_cost(benchmark, with_ri):
    catalog, db, view = figure1_setting(with_ri)
    aux = auxiliary_views(catalog, view)
    bindings = dict(aux.materialize(db.state()))
    bindings["Sale__ins"] = Relation(
        ("item", "clerk"), [("fresh", f"clerk{i}") for i in range(5)]
    )
    expression = aux.insert_delta_expression("Sale")
    benchmark(lambda: evaluate(expression, bindings))


@pytest.mark.parametrize("with_ri", [False, True], ids=["no-ri", "ri"])
def test_complement_insert_delta_cost(benchmark, with_ri):
    catalog, db, view = figure1_setting(with_ri)
    wh = Warehouse.specify(catalog, [view])
    wh.initialize(db)
    update = Update.insert(
        "Sale", ("item", "clerk"), [("fresh", f"clerk{i}") for i in range(5)]
    )
    state = dict(wh.state)
    benchmark(lambda: refresh_state(wh.spec, state, update))


def test_report_series(benchmark):
    rows = []

    for label, with_ri in (("fig1 (no constraints)", False), ("fig1 + RI", True)):
        catalog, db, view = figure1_setting(with_ri)
        aux = auxiliary_views(catalog, view)
        spec = complement_thm22(catalog, [view])
        state = db.state()
        rows.append(
            (
                label,
                db.total_rows(),
                aux.storage_rows(state),
                complement_storage(spec, state),
                len(spec.complement_names()),
            )
        )

    inst = tpcd_instance(scale=1.0, seed=9)
    sales_fact = inst.views[0]
    aux = auxiliary_views(inst.catalog, sales_fact)
    spec = complement_thm22(inst.catalog, [sales_fact])
    state = inst.database.state()
    rows.append(
        (
            "tpcd SalesFact",
            inst.database.total_rows(),
            aux.storage_rows(state),
            complement_storage(spec, state),
            len(spec.complement_names()),
        )
    )

    print_table(
        "E11 (Section 1): auxiliary-view route [18] vs complement route",
        ("setting", "src rows", "aux rows", "complement rows", "stored complements"),
        rows,
    )
    # The paper's claim: constraints are where complements win.
    fig1_plain, fig1_ri = rows[0], rows[1]
    assert fig1_ri[4] < fig1_plain[4]       # RI drops a stored complement...
    assert fig1_ri[3] <= fig1_plain[3]      # ...never storing more tuples...
    assert fig1_ri[2] == fig1_plain[2]      # ...while auxiliaries are unchanged
    assert fig1_ri[3] < fig1_ri[2]          # complement beats aux under RI

    catalog, db, view = figure1_setting(True)
    benchmark(lambda: complement_thm22(catalog, [view]))
