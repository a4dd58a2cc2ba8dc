"""E9 — Section 5: star schemata with union fact tables and aggregates.

Builds a two-location star warehouse (per-location order sources, shared
customer dimension, union-integrated ``Sales`` fact table, revenue
aggregate) and times initialization, per-batch maintenance, and aggregate
upkeep across source sizes.

Expected shape: all order complements are proven empty (foreign keys plus
origin check constraints), so warehouse storage is just the star schema;
maintenance stays delta-proportional per batch.
"""

from __future__ import annotations

import random

import pytest

from repro import Catalog, Database, Update, View, Warehouse, parse, parse_condition
from repro.core.aggregates import AggregateView, agg_sum, count
from repro.core.star import FactTable, star_specify

from _helpers import print_table

LOCATIONS = ("N", "S", "W")


def build(n_customers: int, orders_per_loc: int, seed: int = 0):
    rng = random.Random(seed)
    catalog = Catalog()
    catalog.relation("Customer", ("custkey", "segment"), key=("custkey",))
    for loc in LOCATIONS:
        name = f"Orders{loc}"
        catalog.relation(name, ("loc", "okey", "custkey", "price"), key=("okey",))
        catalog.inclusion(name, ("custkey",), "Customer")
        catalog.add_check(name, parse_condition(f"loc = '{loc}'"))

    db = Database(catalog)
    db.load(
        "Customer",
        [(i, rng.choice(("RETAIL", "CORP", "GOV"))) for i in range(n_customers)],
    )
    for index, loc in enumerate(LOCATIONS):
        base = (index + 1) * 1_000_000
        db.load(
            f"Orders{loc}",
            [
                (loc, base + i, rng.randrange(n_customers), rng.randint(10, 5000))
                for i in range(orders_per_loc)
            ],
        )

    fact = FactTable(
        "Sales",
        "loc",
        {loc: parse(f"Orders{loc} join Customer") for loc in LOCATIONS},
    )
    spec = star_specify(catalog, [fact], [View("CustomerDim", parse("Customer"))])
    return catalog, db, spec


def order_batch(db: Database, loc: str, size: int, seed: int) -> Update:
    rng = random.Random(seed)
    existing = {r[1] for r in db[f"Orders{loc}"].rows}
    next_key = max(existing) + 1
    customers = sorted(r[0] for r in db["Customer"].rows)
    rows = [
        (loc, next_key + i, rng.choice(customers), rng.randint(10, 5000))
        for i in range(size)
    ]
    return Update.insert(f"Orders{loc}", ("loc", "okey", "custkey", "price"), rows)


SIZES = [(50, 100), (200, 400)]


@pytest.mark.parametrize("n_cust,per_loc", SIZES)
def test_initialization(benchmark, n_cust, per_loc):
    catalog, db, spec = build(n_cust, per_loc)
    wh = Warehouse(spec)
    benchmark(lambda: wh.initialize(db))


@pytest.mark.parametrize("n_cust,per_loc", SIZES)
def test_fact_maintenance(benchmark, n_cust, per_loc):
    catalog, db, spec = build(n_cust, per_loc)
    wh = Warehouse(spec)
    wh.initialize(db)
    update = order_batch(db, "N", 10, seed=5)
    state = dict(wh.state)
    from repro.core.maintenance import refresh_state

    benchmark(lambda: refresh_state(wh.spec, state, update))


def test_report_series(benchmark):
    import time

    rows = []
    for n_cust, per_loc in SIZES:
        catalog, db, spec = build(n_cust, per_loc)
        wh = Warehouse(spec)
        wh.initialize(db)
        wh.attach_aggregate(
            AggregateView(
                "Revenue", "Sales", ("segment",), [count("orders"), agg_sum("price")]
            )
        )
        empty = sum(1 for c in spec.complements.values() if c.provably_empty)
        source_rows = db.total_rows()
        warehouse_rows = wh.storage_rows()

        t0 = time.perf_counter()
        for step, loc in enumerate(LOCATIONS):
            update = order_batch(db, loc, 10, seed=step)
            db.apply(update)
            wh.apply(update)
        elapsed = time.perf_counter() - t0

        # Invariants: fact table reflects all sources, aggregate is exact.
        reference = AggregateView(
            "Ref", "Sales", ("segment",), [count("orders"), agg_sum("price")]
        )
        reference.recompute(wh.relation("Sales"))
        assert wh.aggregate("Revenue") == reference.table()
        rows.append(
            (
                f"{n_cust}/{per_loc}",
                source_rows,
                warehouse_rows,
                empty,
                f"{elapsed / len(LOCATIONS) * 1e3:.1f}",
            )
        )
    print_table(
        "E9 (Section 5): star warehouse — storage and per-batch maintenance",
        ("cust/orders", "src rows", "wh rows", "empty complements", "ms/batch (10 rows + agg)"),
        rows,
    )
    # All four order complements and the customer complement vanish.
    assert all(row[3] == len(LOCATIONS) + 1 for row in rows)

    catalog, db, spec = build(*SIZES[0])
    wh = Warehouse(spec)
    benchmark(lambda: wh.initialize(db))
