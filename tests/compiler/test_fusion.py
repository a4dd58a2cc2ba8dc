"""Chain fusion in refresh plans, plan kinds, and the fused kernel.

A refresh plan's chains are collapsed by :func:`repro.algebra.simplify.simplify`,
which the derivation runs on every maintenance expression; ``TestFuseChains``
checks the rules the plans rely on through it."""

from __future__ import annotations

import pytest

from repro import Catalog, Relation, View, parse, specify
from repro.algebra.conditions import AttributeRef, Comparison, Constant
from repro.algebra.evaluator import evaluate
from repro.algebra.expressions import (
    Difference,
    Empty,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.simplify import simplify
from repro.compiler import fused_plan
from repro.errors import ExpressionError
from repro.storage.columnar import ColumnarTable


SCOPE = {"R": ("a", "b"), "S": ("b", "c")}


class TestFuseChains:
    def test_select_chains_conjoin(self):
        fused = simplify(parse("sigma[a = 1](sigma[b = 2](R))"), SCOPE)
        assert isinstance(fused, Select)
        assert isinstance(fused.child, RelationRef)
        assert str(fused) == "sigma[a = 1 and b = 2](R)"

    def test_project_chains_collapse(self):
        fused = simplify(parse("pi[a](pi[a, b](R))"), SCOPE)
        assert isinstance(fused, Project)
        assert isinstance(fused.child, RelationRef)

    def test_identity_projection_disappears(self):
        fused = simplify(parse("pi[a, b](R)"), SCOPE)
        assert isinstance(fused, RelationRef)

    def test_false_selection_folds_to_empty(self):
        from repro.algebra.conditions import FALSE

        fused = simplify(Select(RelationRef("R"), FALSE), SCOPE)
        assert isinstance(fused, Empty)
        assert fused.attrs == ("a", "b")

    def test_true_selection_disappears(self):
        from repro.algebra.conditions import TRUE

        fused = simplify(Select(RelationRef("R"), TRUE), SCOPE)
        assert isinstance(fused, RelationRef)

    def test_empty_folds_through_join(self):
        expr = Join(RelationRef("R"), Empty(("b", "c")))
        assert isinstance(simplify(expr, SCOPE), Empty)

    def test_empty_folds_through_union(self):
        expr = Union(RelationRef("R"), Empty(("a", "b")))
        assert isinstance(simplify(expr, SCOPE), RelationRef)

    def test_empty_right_difference_disappears(self):
        expr = Difference(RelationRef("R"), Empty(("a", "b")))
        assert isinstance(simplify(expr, SCOPE), RelationRef)

    def test_empty_left_difference_is_empty(self):
        expr = Difference(Empty(("a", "b")), RelationRef("R"))
        assert isinstance(simplify(expr, SCOPE), Empty)

    def test_empty_folds_through_rename(self):
        # (Identity renamings cannot even be constructed — the Rename
        # node rejects a no-op mapping at build time.)
        expr = Rename(Empty(("a", "b")), {"a": "x"})
        fused = simplify(expr, SCOPE)
        assert isinstance(fused, Empty)
        assert fused.attrs == ("x", "b")

    @pytest.mark.parametrize(
        "text",
        [
            "sigma[a = 1](sigma[b = 2](R))",
            "pi[a](pi[a, b](R))",
            "pi[b](sigma[a = 1](R)) join S",
            "(R join S) union (R join S)",
            "R minus pi[a, b](R join S)",
            "rho[a -> x](sigma[a = 2](R))",
        ],
    )
    def test_fusion_preserves_semantics(self, text):
        state = {
            "R": Relation(("a", "b"), [(1, 2), (2, 2), (3, 4), (1, 5)]),
            "S": Relation(("b", "c"), [(2, 7), (4, 8), (9, 9)]),
        }
        expr = parse(text)
        fused = simplify(expr, SCOPE)
        assert evaluate(fused, state) == evaluate(expr, state)


class TestFusedPlanKinds:
    @pytest.fixture
    def spec(self):
        catalog = Catalog()
        catalog.relation("R", ("a", "b"))
        catalog.relation("S", ("b", "c"))
        views = [View("V1", parse("pi[a, b](R)")), View("V2", parse("R join S"))]
        return specify(catalog, views, method="prop22")

    def test_unrelated_view_is_pruned(self, spec):
        # V1 mentions only R, so an S-shaped update provably cannot touch it.
        plan = fused_plan(spec, {"S"})
        assert plan.program_for("V1").kind == "pruned"

    def test_touched_views_are_fused(self, spec):
        plan = fused_plan(spec, {"R"})
        assert plan.program_for("V1").kind == "fused"
        assert plan.program_for("V2").kind == "fused"

    def test_trivial_complement_is_a_patch(self):
        # The trivial method stores full source copies: maintaining C_R
        # under an R update is the pure warehouse-local patch
        # w' = (w - R__del) u R__ins with no algebra to run.
        catalog = Catalog()
        catalog.relation("R", ("a", "b"))
        catalog.relation("S", ("b", "c"))
        views = [View("V2", parse("R join S"))]
        spec = specify(catalog, views, method="trivial")
        plan = fused_plan(spec, {"R"})
        assert plan.program_for("C_R").kind == "patch"
        assert plan.program_for("C_S").kind == "pruned"

    def test_describe_names_every_relation(self, spec):
        text = fused_plan(spec, {"R"}).describe()
        for name in ("V1", "V2", "C_R", "C_S"):
            assert name in text

    def test_delta_names_cover_the_shape(self, spec):
        plan = fused_plan(spec, {"R"})
        assert plan.delta_names == {"R__ins", "R__del"}


class TestSelectProjectKernel:
    @pytest.fixture
    def table(self):
        rows = [(i % 5, i, f"v{i % 3}") for i in range(40)]
        return ColumnarTable.from_relation(Relation(("k", "n", "tag"), rows))

    def test_matches_select_then_project(self, table):
        condition = Comparison(AttributeRef("k"), "=", Constant(2))
        fused = table.select_project(condition, ("tag",))
        staged = table.select(condition).project(("tag",))
        assert fused.to_relation() == staged.to_relation()

    def test_multi_attribute_projection(self, table):
        condition = Comparison(AttributeRef("n"), "<", Constant(20))
        fused = table.select_project(condition, ("tag", "k"))
        staged = table.select(condition).project(("tag", "k"))
        assert fused.to_relation() == staged.to_relation()

    def test_empty_match_keeps_schema(self, table):
        condition = Comparison(AttributeRef("k"), "=", Constant(99))
        fused = table.select_project(condition, ("n",))
        assert len(fused) == 0
        assert fused.to_relation().attributes == ("n",)

    def test_unknown_attribute_rejected(self, table):
        condition = Comparison(AttributeRef("k"), "=", Constant(1))
        with pytest.raises(ExpressionError):
            table.select_project(condition, ("missing",))

    def test_duplicate_attribute_rejected(self, table):
        condition = Comparison(AttributeRef("k"), "=", Constant(1))
        with pytest.raises(ExpressionError):
            table.select_project(condition, ("k", "k"))
