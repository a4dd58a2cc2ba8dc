"""E5 — Example 2.4: referential integrity empties a complement.

Scales the Figure 1 instance and compares the warehouse with and without
the constraint ``pi_clerk(Sale) ⊆ pi_clerk(Emp)`` declared.

Expected shape (paper): with the IND declared, C_Sale is dropped at
*specification time* (zero storage, zero maintenance work, forever); without
it the complement is stored even though it happens to be empty on RI data —
the constraint turns an empirical accident into a guarantee.
"""

from __future__ import annotations

import pytest

from repro import Update, Warehouse, complement_thm22
from repro.core.maintenance import refresh_state

from _helpers import figure1_catalog, figure1_database, print_table, sold_view

SCALES = [(100, 4), (400, 4)]


def build(with_ri: bool, n_emps: int, per_emp: int):
    catalog = figure1_catalog(with_ri=with_ri)
    db = figure1_database(catalog, n_emps, per_emp)
    wh = Warehouse.specify(catalog, [sold_view()])
    wh.initialize(db)
    return db, wh


@pytest.mark.parametrize("with_ri", [False, True], ids=["no-ri", "ri"])
@pytest.mark.parametrize("n_emps,per_emp", SCALES)
def test_maintenance_latency(benchmark, with_ri, n_emps, per_emp):
    db, wh = build(with_ri, n_emps, per_emp)
    update = Update.insert(
        "Sale", ("item", "clerk"), [("fresh", f"clerk{i}") for i in range(5)]
    )
    state = dict(wh.state)
    benchmark(lambda: refresh_state(wh.spec, state, update))


def test_report_series(benchmark):
    rows = []
    for n_emps, per_emp in SCALES:
        entry = [f"{n_emps}x{per_emp}"]
        for with_ri in (False, True):
            db, wh = build(with_ri, n_emps, per_emp)
            spec = wh.spec
            stored_names = spec.complement_names()
            entry.append(len(stored_names))
            entry.append(wh.storage_rows())
        rows.append(tuple(entry))
    print_table(
        "E5 (Example 2.4): complements stored with/without referential integrity",
        ("scale", "#C (no RI)", "wh rows (no RI)", "#C (RI)", "wh rows (RI)"),
        rows,
    )
    # The RI variant stores one complement fewer (C_Sale is proven empty).
    assert all(row[3] < row[1] for row in rows)

    catalog = figure1_catalog(with_ri=True)
    benchmark(lambda: complement_thm22(catalog, [sold_view()]))
