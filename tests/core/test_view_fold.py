"""Answering a PSJ sub-query from the stored view it matches.

``translate_query(spec, q, optimized=True)`` folds, before the Equation (4)
inverses are substituted, every sub-query whose PSJ normal form joins the
same set of base relations as a stored PSJ view onto that view
(:func:`repro.views.psj.fold_onto_views`): ``pi_Y(sigma_c(R_1 join ...
join R_k))`` becomes ``pi_Y(sigma_{c - d}(V))`` for ``V = pi_X(sigma_d(...))``
when every conjunct of ``d`` is one of ``c`` and ``Y`` and the attributes of
``c - d`` lie inside ``X``. These tests pin where the rule fires, where it
must not, and that a folded answer is still the source answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    Catalog,
    Database,
    Relation,
    View,
    Warehouse,
    WarehouseError,
    evaluate,
    parse,
    specify,
)
from repro.algebra.conditions import Comparison, attr, conjoin, const
from repro.algebra.expressions import Expression, Join, Project, RelationRef, select
from repro.core.hybrid import HybridWarehouse
from repro.core.independence import warehouse_state
from repro.core.sharding import ShardedWarehouse, ShardRouting
from repro.core.star import FactTable, star_specify
from repro.core.translation import translate_query
from repro.views.psj import fold_onto_views
from repro.workloads import random_catalog, random_database, random_views
from repro.workloads.tpcd import standard_views, tpcd_instance

FACTJOIN = (
    "pi[orderkey, linenumber, price, mktsegment]"
    "(sigma[price > 3000](Lineitem) join Orders join Customer)"
)
STEP4 = "pi[age](sigma[item = 'Computer'](Sale) join Emp)"


def plan(spec, text: str) -> Expression:
    return translate_query(spec, parse(text), optimized=True)


def folded(spec, text: str) -> Expression:
    return fold_onto_views(parse(text), spec.views, spec.source_scope())


@pytest.fixture(scope="module")
def tpcd():
    instance = tpcd_instance(scale=0.2, seed=3)
    return instance, specify(instance.catalog, instance.views)


@pytest.fixture
def sold_spec(figure1_catalog):
    return specify(figure1_catalog, [View("Sold", parse("Sale join Emp"))])


@pytest.fixture
def rs_catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("R", ("a", "b"))
    catalog.relation("S", ("b", "c"))
    return catalog


def rs_state():
    return {
        "R": Relation(("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)]),
        "S": Relation(("b", "c"), [(1, 1), (2, 2), (2, 3), (4, 1)]),
    }


def assert_answers(spec, text: str, source_state) -> None:
    image = warehouse_state(spec, source_state)
    assert evaluate(plan(spec, text), image) == evaluate(parse(text), source_state)


class TestFires:
    def test_factjoin_reads_only_the_fact_view(self, tpcd):
        instance, spec = tpcd
        assert plan(spec, FACTJOIN).relation_names() == {"SalesFact"}
        assert_answers(spec, FACTJOIN, instance.database.state())

    def test_paper_step4_reads_only_sold(self, sold_spec, figure1_database):
        assert str(folded(sold_spec, STEP4)) == (
            "pi[age](sigma[item = 'Computer'](Sold))"
        )
        assert plan(sold_spec, STEP4).relation_names() == {"Sold"}
        assert_answers(sold_spec, STEP4, figure1_database.state())

    @pytest.mark.parametrize(
        "text",
        [
            "pi[orderkey, linenumber, price, mktsegment]"
            "(Customer join (Orders join sigma[price > 3000](Lineitem)))",
            "pi[orderkey, linenumber, price, mktsegment]"
            "(sigma[price > 3000](Orders join Customer join Lineitem))",
            "pi[orderkey, linenumber, price, mktsegment]"
            "((sigma[price > 3000](Lineitem) join Customer) join Orders)",
        ],
        ids=["permuted", "selection-on-top", "re-associated"],
    )
    def test_join_operands_permuted_or_reassociated(self, tpcd, text):
        instance, spec = tpcd
        assert plan(spec, text).relation_names() == {"SalesFact"}
        assert_answers(spec, text, instance.database.state())

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("sigma[a = 1](R join S)", "V"),
            ("sigma[c = 2](sigma[a = 1](R) join S)", "sigma[c = 2](V)"),
            ("pi[b](sigma[c = 2 and a = 1](S join R))", "pi[b](sigma[c = 2](V))"),
        ],
    )
    def test_view_condition_conjuncts_found_in_the_query(
        self, rs_catalog, text, expected
    ):
        spec = specify(rs_catalog, [View("V", parse("sigma[a = 1](R join S)"))])
        assert str(folded(spec, text)) == expected
        assert plan(spec, text).relation_names() == {"V"}
        assert_answers(spec, text, rs_state())

    def test_operands_of_unfoldable_nodes_still_fold(self, rs_catalog):
        # A rename or a self-join is never folded itself; the PSJ operand
        # inside it is.
        spec = specify(rs_catalog, [View("V", parse("R join S"))])
        assert str(folded(spec, "rho[c -> d](R join S)")) == "rho[c -> d](V)"
        assert str(folded(spec, "(R join S) join R")) == "V join R"
        for text in ("rho[c -> d](R join S)", "(R join S) join R"):
            assert_answers(spec, text, rs_state())


class TestDoesNotFire:
    @pytest.mark.parametrize(
        "text",
        [
            "pi[a, c](R join S)",  # a kept attribute outside X
            "pi[a](sigma[c = 1](R join S))",  # a residual conjunct outside X
            "pi[a, b](R)",  # a different relation set
        ],
    )
    def test_attributes_outside_the_view_or_other_relations(self, rs_catalog, text):
        spec = specify(rs_catalog, [View("V", parse("pi[a, b](R join S)"))])
        assert folded(spec, text) == parse(text)
        assert_answers(spec, text, rs_state())

    def test_view_condition_missing_from_the_query(self, rs_catalog):
        spec = specify(rs_catalog, [View("V", parse("sigma[a = 1](R join S)"))])
        for text in ("R join S", "sigma[a = 2](R join S)", "sigma[a >= 1](R join S)"):
            assert folded(spec, text) == parse(text)
            assert_answers(spec, text, rs_state())

    def test_a_smaller_join_than_the_fact_view(self, tpcd):
        # Lineitem join Orders = pi(SalesFact) holds only under the declared
        # IND and keys; the fold uses no constraint, so this stays unfolded.
        instance, spec = tpcd
        text = "sigma[orderkey = 7](Lineitem) join Orders"
        assert folded(spec, text) == parse(text)
        assert "C_Orders" in plan(spec, text).relation_names()
        assert_answers(spec, text, instance.database.state())

    def test_rename_inside_the_join(self, rs_catalog):
        spec = specify(rs_catalog, [View("V", parse("R join S"))])
        text = "R join rho[x -> b](rho[b -> x](S))"
        assert folded(spec, text) == parse(text)
        assert_answers(spec, text, rs_state())

    def test_non_psj_views_are_skipped(self, rs_catalog):
        union_view = View("U", parse("R union rho[c -> a](S)"))
        query = parse("R union rho[c -> a](S)")
        scope = {s.name: s.attributes for s in rs_catalog.schemas()}
        assert fold_onto_views(query, [union_view], scope) == query

    def test_star_fact_table_is_skipped(self):
        catalog = Catalog()
        catalog.relation("Customer", ("custkey", "segment"), key=("custkey",))
        for name in ("OrdersN", "OrdersS"):
            catalog.relation(name, ("loc", "okey", "custkey"), key=("okey",))
            catalog.inclusion(name, ("custkey",), "Customer")
        fact = FactTable(
            "Sales", "loc",
            {"N": parse("OrdersN join Customer"), "S": parse("OrdersS join Customer")},
        )
        spec = star_specify(catalog, [fact])
        text = "sigma[loc = 'N'](OrdersN join Customer)"
        assert folded(spec, text) == parse(text)
        db = Database(catalog)
        db.load("Customer", [(1, "RETAIL"), (2, "CORP")])
        db.load("OrdersN", [("N", 10, 1), ("N", 11, 2)])
        db.load("OrdersS", [("S", 20, 1)])
        assert_answers(spec, text, db.state())


class TestServing:
    @pytest.mark.parametrize("shards", [1, 4])
    def test_query_sanitizer_checks_folded_sharded_answers(
        self, tpcd, monkeypatch, poison_plan, shards
    ):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        instance, _ = tpcd
        sharded = ShardedWarehouse.specify(
            instance.catalog,
            standard_views(),
            routings=[
                ShardRouting("Orders", "orderkey", shards=shards),
                ShardRouting("Lineitem", "orderkey", shards=shards),
            ],
        )
        sharded.initialize(instance.database)
        expected = evaluate(parse(FACTJOIN), instance.database.state())
        assert sharded.answer(FACTJOIN) == expected
        # The static read set is {SalesFact}: a plan that also reads the
        # Orders complement is caught.
        poison_plan(
            sharded.spec, FACTJOIN,
            "pi[orderkey, linenumber, price, mktsegment]"
            "(sigma[price > 3000](SalesFact) join pi[orderkey](C_Orders))",
        )
        with pytest.raises(WarehouseError, match="query sanitizer"):
            sharded.answer(FACTJOIN)

    def test_hybrid_answers_from_sold_without_source_reads(
        self, sold_spec, figure1_database
    ):
        db = figure1_database
        hybrid = HybridWarehouse(
            sold_spec, ["C_Emp"], source_access=lambda name: db[name]
        )
        hybrid.initialize(db)
        text = "pi[age](sigma[item = 'TV set'](Sale) join Emp)"
        assert hybrid.answer(text) == evaluate(parse(text), db.state())
        assert hybrid.source_queries == 0


# ----------------------------------------------------------------------
# Property: queries derived from view definitions fold, and answer right
# ----------------------------------------------------------------------


def _derived_query(view: View, scope, rng: random.Random) -> Expression:
    """A query the fold must answer from ``view``: its relations shuffled
    and re-associated, its conjuncts placed on an operand or on top, plus
    extra conjuncts and a projection over the view's kept attributes."""
    psj = view.psj(scope)
    kept = sorted(psj.attributes(scope))
    parts = [] if psj.has_trivial_condition() else list(psj.condition.conjuncts())
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(("=", "<=", "!="))
        parts.append(Comparison(attr(rng.choice(kept)), op, const(rng.randrange(4))))
    names = list(psj.relations)
    rng.shuffle(names)
    placed = {name: [] for name in names}
    on_top = []
    for part in parts:
        homes = [name for name in names if part.attributes() <= set(scope[name])]
        if homes and rng.random() < 0.5:
            placed[rng.choice(homes)].append(part)
        else:
            on_top.append(part)
    operands = [select(RelationRef(name), conjoin(placed[name])) for name in names]
    while len(operands) > 1:
        index = rng.randrange(len(operands) - 1)
        operands[index:index + 2] = [Join(operands[index], operands[index + 1])]
    query = select(operands[0], conjoin(on_top))
    if rng.random() < 0.7 or set(kept) != psj.joined_attributes(scope):
        query = Project(query, rng.sample(kept, rng.randint(1, len(kept))))
    return query


@given(seed=st.integers(min_value=0, max_value=10_000), pick=st.integers(0, 2))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_queries_derived_from_views_fold_and_answer(seed, pick):
    catalog = random_catalog(seed)
    views = random_views(seed, catalog, n_views=3, selection_probability=0.5,
                         domain_size=4)
    db = random_database(seed, catalog, rows_per_relation=8, domain_size=4)
    warehouse = Warehouse.specify(catalog, views)
    warehouse.initialize(db)
    scope = warehouse.spec.source_scope()
    query = _derived_query(views[pick], scope, random.Random(seed * 3 + pick))

    stored = fold_onto_views(query, warehouse.spec.views, scope).relation_names()
    assert len(stored) == 1 and stored <= set(warehouse.spec.view_names()), str(query)
    assert warehouse.answer(query) == evaluate(query, db.state()), str(query)
