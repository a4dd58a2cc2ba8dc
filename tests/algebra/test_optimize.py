"""Unit tests for :mod:`repro.algebra.optimize`.

Every rewrite is checked both structurally (the expected shape) and
semantically (equal results on random states).
"""

from __future__ import annotations

import random

import pytest

from repro import Relation, evaluate, parse
from repro.algebra.optimize import optimize

SCOPE = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "b")}


def random_state(seed: int):
    rng = random.Random(seed)
    state = {}
    for name, attrs in SCOPE.items():
        rows = {
            tuple(rng.randrange(4) for _ in attrs) for _ in range(rng.randint(0, 7))
        }
        state[name] = Relation(attrs, rows)
    return state


def check(text: str, expected: str = None):
    expr = parse(text)
    optimized = optimize(expr, SCOPE)
    if expected is not None:
        assert str(optimized) == expected, f"{text} -> {optimized}"
    for seed in range(8):
        state = random_state(seed)
        assert evaluate(expr, state) == evaluate(optimized, state), (text, seed)
    return optimized


class TestSelectionPushdown:
    def test_split_across_join(self):
        check(
            "sigma[a = 1 and c = 2](R join S)",
            "sigma[a = 1](R) join sigma[c = 2](S)",
        )

    def test_shared_attribute_goes_one_side(self):
        optimized = check("sigma[b = 1](R join S)")
        # b is shared: it lands on at least one side (our splitter: left).
        assert "sigma" in str(optimized)
        assert str(optimized) != "sigma[b = 1](R join S)"

    def test_cross_relation_conjunct_stays(self):
        optimized = check("sigma[a = c](R join S)")
        assert str(optimized).startswith("sigma[a = c](")

    def test_push_through_union(self):
        check(
            "sigma[a = 1](R union T)",
            "sigma[a = 1](R) union sigma[a = 1](T)",
        )

    def test_push_through_difference(self):
        check("sigma[a = 1](R minus T)", "sigma[a = 1](R) minus T")

    def test_push_through_projection(self):
        # pi[a, b](R) is the identity here and simplifies away first.
        check("sigma[a = 1](pi[a, b](R))", "sigma[a = 1](R)")
        # Over a join, sigma commutes inside the projection and on into
        # the join's side.
        check(
            "sigma[a = 1](pi[a, c](R join S))",
            "pi[a, c](sigma[a = 1](R) join S)",
        )
        # Over a leaf it stays above: the normal form of both orders.
        check("sigma[b = 1](pi[b](S))", "sigma[b = 1](pi[b](S))")
        check("pi[b](sigma[b = 1](S))", "sigma[b = 1](pi[b](S))")

    def test_push_through_rename(self):
        optimized = check("sigma[x = 1](rho[a -> x](R))")
        assert str(optimized) == "rho[a -> x](sigma[a = 1](R))"

    def test_three_way_join_cascades(self):
        from repro.algebra.expressions import Select

        optimized = check("sigma[a = 1 and c = 2 and b = 3](R join S join T)")
        # Everything pushed; the root is a join, not a selection.
        assert not isinstance(optimized, Select)


class TestProjectionPruning:
    def test_narrow_join_sides(self):
        check(
            "pi[a, c](R join S)",
            "pi[a, c](R join S)",  # R is (a,b): b is the join attr — kept;
        )
        optimized = check("pi[a](R join S)")
        # S narrows to its join attribute b.
        assert "pi[b](S)" in str(optimized)

    def test_distribute_over_union(self):
        check("pi[a](R union T)", "pi[a](R) union pi[a](T)")

    def test_narrow_below_selection(self):
        # Nothing to narrow (R is only a, b); shape preserved.
        check("pi[a](sigma[b = 1](R))", "pi[a](sigma[b = 1](R))")
        # W narrows to the projected and the selected attributes.
        scope = dict(SCOPE, W=("b", "c", "d"))
        optimized = optimize(parse("pi[c](sigma[b = 1](W))"), scope)
        assert str(optimized) == "pi[c](sigma[b = 1](pi[b, c](W)))"

    def test_wide_join_gets_narrowed(self):
        scope = dict(SCOPE)
        scope["W"] = ("b", "d", "e", "f")
        expr = parse("pi[a](R join W)")
        optimized = optimize(expr, scope)
        assert "pi[b](W)" in str(optimized)
        rng = random.Random(0)
        for seed in range(5):
            state = random_state(seed)
            state["W"] = Relation(
                ("b", "d", "e", "f"),
                {
                    tuple(rng.randrange(4) for _ in range(4))
                    for _ in range(rng.randint(0, 6))
                },
            )
            assert evaluate(expr, state) == evaluate(optimized, state)


class TestEndToEnd:
    def test_translated_query_shape(self):
        from repro import Catalog, View, complement_thm22
        from repro.core.translation import translate_query

        catalog = Catalog()
        catalog.relation("Sale", ("item", "clerk"))
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        catalog.inclusion("Sale", ("clerk",), "Emp")
        spec = complement_thm22(catalog, [View("Sold", parse("Sale join Emp"))])
        query = parse("pi[age](sigma[item = 'computer'](Sale) join Emp)")
        plain = translate_query(spec, query)
        optimized = translate_query(spec, query, optimized=True)
        # The query joins exactly Sold's relations, so it is answered from
        # Sold alone: no inverse, no join.
        assert str(optimized) == "pi[age](sigma[item = 'computer'](pi[item, age](Sold)))"
        assert "C_Emp" in str(plain)
        assert plain != optimized

    def test_fixed_point_terminates(self):
        # A deliberately nested expression reaches a normal form: a second
        # run leaves it as it is.
        text = (
            "pi[a](sigma[a = 1](pi[a, b](sigma[b = 2]("
            "R join (S union sigma[c = 3](S))))))"
        )
        optimized = check(text)
        assert str(optimize(optimized, SCOPE)) == str(optimized)
        # A cross-side conjunct stays above the join; the projection over
        # it narrows the join's sides instead of wrapping the join.
        scope = dict(SCOPE, W=("b", "c", "d"))
        optimized = optimize(parse("pi[a](sigma[a = c](R join W))"), scope)
        assert str(optimized) == "pi[a](sigma[a = c](R join pi[b, c](W)))"
        assert str(optimize(optimized, scope)) == str(optimized)
