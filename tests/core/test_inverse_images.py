"""The inverse images a warehouse holds: ``W^{-1}(w)``, patched per commit.

Each base relation an answer or ``reconstruct`` reads keeps its image; a
commit records the refresh's effective update against it and the next read
patches it (``repro.storage.patch``). These tests pin that every image read
equals the inverse evaluated afresh over the committed state, and that
answers over the images equal the query evaluated over the sources.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Catalog, Database, Relation, Update, View, Warehouse, WarehouseError, evaluate, parse,
)
from repro.core.translation import answer_query
from repro.storage.patch import PatchedImage
from repro.workloads.tpcd import order_insert_rows, tpcd_instance

ENGINES = ("tuple", "columnar")


def counts(warehouse):
    return tuple(
        warehouse.metrics.value(f"warehouse.inverse_images.{how}")
        for how in ("full", "patched")
    )


def assert_images_current(warehouse):
    """Every held image, folded on a copy so the holder's pending deltas
    stay pending, equals its inverse evaluated over the committed state."""
    for name, held in warehouse._images.items():
        image, _ = copy.copy(held).read()
        expected = evaluate(warehouse.spec.inverses[name], warehouse.state, engine="tuple")
        assert image == expected, name


def advance(shadow, update):
    for delta in update:
        shadow[delta.relation] = delta.normalized(shadow[delta.relation]).apply_to(
            shadow[delta.relation]
        )


@pytest.fixture
def figure1_sales(figure1_catalog):
    """Figure 1 with 16 sales: deltas of a few rows stay under the cap."""
    database = Database(figure1_catalog)
    database.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    clerks = ("Mary", "John", "Paula")
    database.load("Sale", [(f"Item{n:02}", clerks[n % 3]) for n in range(16)])
    return database


@pytest.fixture
def figure1(figure1_catalog, figure1_sales, sold_view):
    warehouse = Warehouse.specify(figure1_catalog, [sold_view])
    warehouse.initialize(figure1_sales)
    return warehouse, dict(figure1_sales.state())


class TestDeterministic:
    def test_a_row_deleted_and_reinserted_between_two_reads(self, figure1):
        warehouse, shadow = figure1
        row = sorted(shadow["Sale"].rows)[0]
        warehouse.reconstruct("Sale")
        assert counts(warehouse) == (1, 0)
        warehouse.delete("Sale", [row])
        warehouse.insert("Sale", [row])
        assert warehouse.reconstruct("Sale") == shadow["Sale"]
        warehouse.insert("Sale", [("Radio", "Paula")])
        warehouse.delete("Sale", [("Radio", "Paula")])
        assert warehouse.reconstruct("Sale") == shadow["Sale"]
        assert counts(warehouse) == (1, 2)

    def test_a_delta_past_the_cap_rebuilds_in_full(self, figure1):
        warehouse, shadow = figure1
        warehouse.reconstruct("Sale")
        rows = [(f"New{n}", "Mary") for n in range(5)]  # 5 * 4 > 16 rows
        warehouse.insert("Sale", rows)
        assert "Sale" not in warehouse._images  # dropped at the commit
        advance(shadow, Update.insert("Sale", ("item", "clerk"), rows))
        assert warehouse.reconstruct("Sale") == shadow["Sale"]
        assert counts(warehouse) == (2, 0)

    @pytest.mark.parametrize("how", ["apply_full", "initialize"])
    def test_apply_full_and_initialize_drop_every_image(self, figure1, how, figure1_sales):
        warehouse, shadow = figure1
        warehouse.answer("pi[clerk](Sale) union pi[clerk](Emp)")
        assert set(warehouse._images) == {"Sale", "Emp"}
        update = Update.insert("Sale", ("item", "clerk"), [("Radio", "John")])
        if how == "apply_full":
            warehouse.apply_full(update)
            advance(shadow, update)
        else:
            warehouse.initialize(figure1_sales)
        assert warehouse._images == {}
        assert warehouse.reconstruct("Sale") == shadow["Sale"]
        assert counts(warehouse) == (3, 0)

    def test_an_effectively_empty_update_leaves_the_image_alone(self, figure1):
        warehouse, shadow = figure1
        image = warehouse.reconstruct("Sale")
        warehouse.insert("Sale", [sorted(shadow["Sale"].rows)[0]])  # already there
        warehouse.delete("Sale", [("Nothing", "Mary")])  # never there
        assert warehouse.reconstruct("Sale") is image
        assert counts(warehouse) == (1, 0)

    def test_an_old_snapshot_read_after_newer_commits(self, figure1):
        warehouse, shadow = figure1
        query = parse("pi[item, age](Sale join Emp)")
        old, before = warehouse.snapshot(), warehouse.answer(query)
        for n in range(3):
            warehouse.insert("Sale", [(f"Radio{n}", "Paula")])
            warehouse.answer(query)
        assert warehouse.answer(query) != before
        assert before == evaluate(query, shadow)
        # The pinned state still answers as of its version: patching the
        # images never touched the relations it holds.
        assert answer_query(warehouse.spec, old.state(), query) == before

    def test_a_bare_inverse_binds_the_stored_relation(self):
        instance = tpcd_instance(1.0, seed=7)
        warehouse = Warehouse.specify(instance.catalog, instance.views)
        warehouse.initialize(instance.database)
        stored = warehouse.spec.inverses["Customer"].name
        assert warehouse.reconstruct("Customer") is warehouse.state[stored]
        assert "Customer" not in warehouse._images

    def test_a_corrupted_image_raises_under_the_sanitizer(
        self, monkeypatch, figure1_catalog, figure1_database, sold_view
    ):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        warehouse = Warehouse.specify(figure1_catalog, [sold_view])
        warehouse.initialize(figure1_database)
        assert warehouse.answer("Sale") == figure1_database["Sale"]
        sale = warehouse._images["Sale"]
        row = sorted(figure1_database["Sale"].rows)[0]
        attributes = sale.image.attributes
        sale.record(Relation(attributes, [row]), Relation.empty(attributes))
        with pytest.raises(WarehouseError, match="image sanitizer"):
            warehouse.answer("Sale")


def test_a_recorded_delta_is_aligned_to_the_image_columns():
    image = Relation(("x", "y"), [(n, -n) for n in range(8)])
    held = PatchedImage(image)
    assert held.record(Relation(("y", "x"), [(0, 0)]), Relation(("y", "x"), [(-9, 9)]))
    patched, folded = held.read()
    assert folded
    assert patched.rows == {(n, -n) for n in range(1, 8)} | {(9, -9)}
    assert held.read() == (patched, False)


# ----------------------------------------------------------------------
# A random walk over the whole lifecycle, on both engines and two specs
# ----------------------------------------------------------------------


def _tpcd_setting():
    instance = tpcd_instance(scale=1.0, seed=7)
    database, catalog = instance.database, instance.catalog
    orders, lines = order_insert_rows(random.Random(7), database, 4)
    pool = []
    for n in range(2):
        for kind in ("insert", "delete"):
            make = getattr(Update, kind)
            pool.append(
                make("Orders", catalog["Orders"].attributes, orders[2 * n:2 * n + 2])
                .compose(make(
                    "Lineitem", catalog["Lineitem"].attributes, lines[4 * n:4 * n + 4]
                ))
            )
    old = sorted(database["Lineitem"].rows)[:3]
    customer = [(9000, "CUST_9000", 0, "BUILDING")]
    for kind in ("delete", "insert"):
        make = getattr(Update, kind)
        pool.append(make("Lineitem", catalog["Lineitem"].attributes, old))
        pool.append(make("Customer", catalog["Customer"].attributes, customer))
    queries = [
        "sigma[orderkey = 5](Orders)",
        "sigma[orderkey = 11](Lineitem) join Orders",
        "sigma[custkey = 13](Orders) join Customer",
        "pi[orderkey, linenumber, price, mktsegment]"
        "(sigma[price > 45000](Lineitem) join Orders join Customer)",
        "sigma[custkey < 40](Customer) minus "
        "pi[custkey, cname, cnationkey, mktsegment](Customer join Orders)",
        "Lineitem",
    ]
    return instance.catalog, instance.views, database, pool, queries


def _figure1_setting():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    database = Database(catalog)
    database.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    database.load("Sale", [("TV", "Mary"), ("PC", "John"), ("PC", "Paula")])
    sale, emp = ("item", "clerk"), ("clerk", "age")
    pool = [
        Update.insert("Sale", sale, [("Radio", "Paula")]),
        Update.delete("Sale", sale, [("Radio", "Paula")]),
        Update.delete("Sale", sale, [("TV", "Mary"), ("PC", "John")]),
        Update.insert("Sale", sale, [("TV", "Mary"), ("PC", "John")]),
        Update.insert("Emp", emp, [("Ann", 41)]),
        Update.delete("Emp", emp, [("Ann", 41)]),
        Update.insert("Sale", sale, [("Car", "Ann")]),
        Update.delete("Sale", sale, [("Car", "Ann")]),
    ]
    queries = [
        "Sale", "pi[clerk](Sale)", "sigma[age > 24](Emp)",
        "pi[age](Sale join Emp)", "Emp minus pi[clerk, age](Sale join Emp)",
    ]
    return catalog, [View("Sold", parse("Sale join Emp"))], database, pool, queries


SETTINGS = {"tpcd": _tpcd_setting(), "figure1": _figure1_setting()}

STEP = st.one_of(
    st.tuples(st.just("apply"), st.integers(0, 9)),
    st.tuples(st.just("apply_batch"), st.lists(st.integers(0, 9), max_size=3)),
    st.tuples(st.just("apply_full"), st.integers(0, 9)),
    st.tuples(st.just("initialize")),
    st.tuples(st.just("answer"), st.integers(0, 9)),
    st.tuples(st.just("reconstruct"), st.integers(0, 9)),
)


@settings(max_examples=30, deadline=None)
@given(
    setting=st.sampled_from(sorted(SETTINGS)),
    engine=st.sampled_from(ENGINES),
    steps=st.lists(STEP, max_size=16),
)
def test_held_images_and_answers_follow_the_sources(setting, engine, steps):
    catalog, views, database, pool, queries = SETTINGS[setting]
    bases = sorted(catalog.relation_names())
    warehouse = Warehouse.specify(catalog, views, engine=engine)
    warehouse.initialize(database)
    shadow = dict(database.state())
    for step in steps:
        kind = step[0]
        if kind in ("apply", "apply_full"):
            update = pool[step[1] % len(pool)]
            getattr(warehouse, kind)(update)
            advance(shadow, update)
        elif kind == "apply_batch":
            batch = [pool[i % len(pool)] for i in step[1]]
            warehouse.apply_batch(batch)
            for update in batch:
                advance(shadow, update)
        elif kind == "initialize":
            warehouse.initialize(shadow)
        elif kind == "answer":
            query = parse(queries[step[1] % len(queries)])
            assert warehouse.answer(query) == evaluate(query, shadow, engine="tuple")
        else:
            base = bases[step[1] % len(bases)]
            assert warehouse.reconstruct(base) == shadow[base]
        assert_images_current(warehouse)
