"""Shared fixtures: the paper's running examples as reusable objects."""

from __future__ import annotations

import pytest

from repro import Catalog, Database, Relation, View, parse
from repro.compiler import RefreshCompiler


@pytest.fixture
def poison_plan():
    """Corrupt a spec's plan table: ``query`` now runs ``plan`` (the query
    sanitizer tests' planted fault)."""

    def poison(spec, query: str, plan: str) -> None:
        RefreshCompiler.of(spec)._query_plans[parse(query)._key()] = parse(plan)

    return poison


@pytest.fixture
def figure1_catalog() -> Catalog:
    """Figure 1: Sale(item, clerk), Emp(clerk, age) with clerk a key of Emp."""
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


@pytest.fixture
def figure1_catalog_ri(figure1_catalog: Catalog) -> Catalog:
    """Figure 1 plus the Example 2.4 referential integrity constraint."""
    figure1_catalog.inclusion("Sale", ("clerk",), "Emp")
    return figure1_catalog


@pytest.fixture
def figure1_database(figure1_catalog: Catalog) -> Database:
    """The exact contents shown in Example 1.1."""
    db = Database(figure1_catalog)
    db.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
    db.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    return db


@pytest.fixture
def sold_view() -> View:
    """The warehouse view ``Sold = Sale join Emp``."""
    return View("Sold", parse("Sale join Emp"))


@pytest.fixture
def example21_catalog() -> Catalog:
    """Example 2.1: R(X, Y), S(Y, Z), T(Z) — no constraints."""
    catalog = Catalog()
    catalog.relation("R", ("X", "Y"))
    catalog.relation("S", ("Y", "Z"))
    catalog.relation("T", ("Z",))
    return catalog


@pytest.fixture
def example23_catalog() -> Catalog:
    """Example 2.3: R1(A,B,C), R2(A,C,D), R3(A,B); A keys; two INDs."""
    catalog = Catalog()
    catalog.relation("R1", ("A", "B", "C"), key=("A",))
    catalog.relation("R2", ("A", "C", "D"), key=("A",))
    catalog.relation("R3", ("A", "B"), key=("A",))
    catalog.inclusion("R3", ("A", "B"), "R1")
    catalog.inclusion("R2", ("A", "C"), "R1")
    return catalog


@pytest.fixture
def example23_views():
    """Example 2.3's views V1..V4."""
    return [
        View("V1", parse("R1 join R2")),
        View("V2", parse("R3")),
        View("V3", parse("pi[A, B](R1)")),
        View("V4", parse("pi[A, C](R1)")),
    ]


def make_relation(attrs, rows) -> Relation:
    """Terser Relation construction for test bodies."""
    return Relation(tuple(attrs), rows)
