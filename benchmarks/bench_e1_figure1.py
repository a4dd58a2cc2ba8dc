"""E1 — Figure 1 / Examples 1.1-1.2: maintenance on the running example.

Regenerates the paper's motivating scenario at growing scale and times the
three ways the integrator could react to the reported insertion:

* ``incremental`` — the paper's approach: fold the update in using the
  warehouse and its complement only;
* ``recompute``   — ``w' = W(u(W^{-1}(w)))``: still source-free but from
  scratch;
* ``re_extract``  — what the paper wants to avoid: query the sources and
  rebuild the warehouse (only possible while sources are reachable).

Expected shape: incremental beats recompute, and both avoid the sources.
"""

from __future__ import annotations

import pytest

from repro import Update, Warehouse
from repro.core.independence import warehouse_state

from _helpers import figure1_catalog, figure1_database, print_table, sold_view

SCALES = [(50, 4), (200, 4), (800, 4)]


def build(n_emps: int, sales_per_emp: int):
    catalog = figure1_catalog()
    db = figure1_database(catalog, n_emps, sales_per_emp)
    wh = Warehouse.specify(catalog, [sold_view()], method="prop22")
    wh.initialize(db)
    update = Update.insert(
        "Sale", ("item", "clerk"), [("new_item", f"clerk{i}") for i in range(5)]
    )
    return db, wh, update


@pytest.mark.parametrize("n_emps,per_emp", SCALES)
def test_incremental_maintenance(benchmark, n_emps, per_emp):
    db, wh, update = build(n_emps, per_emp)
    state = dict(wh.state)

    from repro.core.maintenance import refresh_state

    benchmark(lambda: refresh_state(wh.spec, state, update))


@pytest.mark.parametrize("n_emps,per_emp", SCALES)
def test_full_recompute(benchmark, n_emps, per_emp):
    db, wh, update = build(n_emps, per_emp)
    state = dict(wh.state)

    from repro.core.maintenance import full_recompute_state

    benchmark(lambda: full_recompute_state(wh.spec, state, update))


@pytest.mark.parametrize("n_emps,per_emp", SCALES)
def test_source_re_extraction(benchmark, n_emps, per_emp):
    db, wh, update = build(n_emps, per_emp)
    db.apply(update)
    benchmark(lambda: warehouse_state(wh.spec, db.state()))


def test_report_series(benchmark):
    """Print the E1 series: strategies agree; minimal-vs-trivial trade-off."""
    import time

    from repro import Warehouse, complement_trivial
    from repro.core.maintenance import full_recompute_state, refresh_state

    rows = []
    for n_emps, per_emp in SCALES:
        db, wh, update = build(n_emps, per_emp)
        state = dict(wh.state)

        trivial = Warehouse(complement_trivial(wh.spec.catalog, list(wh.spec.views)))
        trivial.initialize(db)
        trivial_state = dict(trivial.state)
        # Derive both refresh plans outside the timed region.
        refresh_state(wh.spec, state, update)
        refresh_state(trivial.spec, trivial_state, update)

        t0 = time.perf_counter()
        incremental, _, _ = refresh_state(wh.spec, state, update)
        t1 = time.perf_counter()
        full = full_recompute_state(wh.spec, state, update)
        t2 = time.perf_counter()
        db.apply(update)
        extracted = warehouse_state(wh.spec, db.state())
        t3 = time.perf_counter()
        refresh_state(trivial.spec, trivial_state, update)
        t4 = time.perf_counter()

        assert incremental == full == extracted
        rows.append(
            (
                f"{n_emps}x{per_emp}",
                db.total_rows(),
                sum(len(r) for r in state.values()),
                sum(len(r) for r in trivial_state.values()),
                f"{(t1 - t0) * 1e3:.2f}",
                f"{(t2 - t1) * 1e3:.2f}",
                f"{(t3 - t2) * 1e3:.2f}",
                f"{(t4 - t3) * 1e3:.2f}",
            )
        )
    print_table(
        "E1 (Figure 1): storage and maintenance latency per 5-tuple insertion",
        (
            "scale",
            "src rows",
            "wh rows (minimal C)",
            "wh rows (trivial C)",
            "incr [ms]",
            "recomp [ms]",
            "re-extract [ms]",
            "trivial incr [ms]",
        ),
        rows,
    )
    # Time the headline operation at the largest scale for the summary.
    db, wh, update = build(*SCALES[-1])
    state = dict(wh.state)
    benchmark(lambda: refresh_state(wh.spec, state, update))
