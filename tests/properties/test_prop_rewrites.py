"""Property-based tests: every rewriting pass preserves semantics.

Hypothesis builds random well-typed expression trees (including difference
and rename, beyond the CQ fragment) plus random states, and checks that

* ``simplify`` preserves evaluation,
* ``optimize`` preserves evaluation,
* ``parse(str(expr)) == expr`` (printer/parser round-trip) for trees whose
  constants are printable,
* ``simplify`` and ``optimize`` return a normal form, equal to what
  rewriting pass after pass until nothing changes reaches.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Relation, evaluate, parse
from repro.algebra.conditions import Comparison, attr, const
from repro.algebra.expressions import (
    Difference,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.optimize import _push, optimize
from repro.algebra.simplify import _simplify_node, simplify

from .strategies import relation

SCOPE = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "b")}
FRESH = "xyz"


def expressions(depth: int):
    leaves = st.sampled_from(
        [RelationRef("R"), RelationRef("S"), RelationRef("T")]
    )
    if depth == 0:
        return leaves
    sub = expressions(depth - 1)

    def combine(args):
        kind, left, right, value, pick = args
        try:
            left_attrs = frozenset(left.attributes(SCOPE_EXT))
            right_attrs = frozenset(right.attributes(SCOPE_EXT))
        except Exception:
            return left
        if kind == "join":
            return Join(left, right)
        if kind == "union" and left_attrs == right_attrs:
            return Union(left, right)
        if kind == "difference" and left_attrs == right_attrs:
            return Difference(left, right)
        if kind == "select":
            chosen = sorted(left_attrs)[pick % len(left_attrs)]
            op = ("=", "!=", "<", ">=")[value % 4]
            return Select(left, Comparison(attr(chosen), op, const(value)))
        if kind == "project":
            keep = sorted(left_attrs)[: 1 + pick % len(left_attrs)]
            return Project(left, tuple(keep))
        if kind == "rename":
            chosen = sorted(left_attrs)[pick % len(left_attrs)]
            target = FRESH[pick % len(FRESH)]
            if target in left_attrs:
                return left
            return Rename(left, {chosen: target})
        return left

    return st.tuples(
        st.sampled_from(
            ["join", "union", "difference", "select", "project", "rename"]
        ),
        sub,
        sub,
        st.integers(0, 3),
        st.integers(0, 5),
    ).map(combine)


# Renames can introduce x, y, z downstream; widen the scope for typing.
SCOPE_EXT = SCOPE


def states():
    return st.fixed_dictionaries(
        {
            "R": relation(("a", "b")),
            "S": relation(("b", "c")),
            "T": relation(("a", "b")),
        }
    )


def _typed(expr) -> bool:
    try:
        expr.attributes(SCOPE)
        return True
    except Exception:
        return False


@given(expressions(3), states())
@settings(max_examples=150, deadline=None)
def test_simplify_preserves_semantics(expr, state):
    if not _typed(expr):
        return
    simplified = simplify(expr, SCOPE)
    assert evaluate(expr, state) == evaluate(simplified, state), str(expr)


@given(expressions(3), states())
@settings(max_examples=150, deadline=None)
def test_optimize_preserves_semantics(expr, state):
    if not _typed(expr):
        return
    optimized = optimize(expr, SCOPE)
    assert evaluate(expr, state) == evaluate(optimized, state), str(expr)


def _rebuilt(expr):
    """A copy of ``expr`` whose inner nodes are new: nothing derived yet."""
    return expr.with_children([_rebuilt(child) for child in expr.children()])


@given(expressions(3))
@settings(max_examples=150, deadline=None)
def test_parser_roundtrip(expr):
    assert parse(str(expr)) == expr, str(expr)
    # The comparison above memoized expr's key; a fresh copy derives its own.
    fresh = _rebuilt(expr)
    leaves = frozenset(n.name for n in expr.walk() if isinstance(n, RelationRef))
    assert (fresh._key(), hash(fresh), fresh.relation_names()) == (
        expr._key(), hash(expr), expr.relation_names()
    ) and expr.relation_names() == leaves, str(expr)


@given(expressions(2), states())
@settings(max_examples=80, deadline=None)
def test_simplify_idempotent(expr, state):
    if not _typed(expr):
        return
    once = simplify(expr, SCOPE)
    twice = simplify(once, SCOPE)
    assert once == twice, str(expr)


def _pass(expr, rule):
    """One bottom-up pass: the children, then ``rule`` once at the node."""
    children = tuple(_pass(child, rule) for child in expr.children())
    if children != expr.children():
        expr = expr.with_children(children)
    return rule(expr, SCOPE)


def _looped_simplify(expr, cap=50):
    """Passes until one changes nothing (``==``), as ``simplify`` once ran.

    Returns the result and whether it converged before ``cap`` passes.
    """
    current = expr
    for _ in range(cap):
        simplified = _pass(current, _simplify_node)
        if simplified == current:
            return simplified, True
        current = simplified
    return current, False


def _looped_optimize(expr, cap=25):
    """A pushdown pass then a looped simplify, until nothing changes, as
    ``optimize`` once ran; returns the result and whether it converged."""
    current, converged = _looped_simplify(expr)
    for _ in range(cap):
        pushed, simplified = _looped_simplify(_pass(current, _push))
        converged = converged and simplified
        if pushed == current:
            return pushed, converged
        current = pushed
    return current, False


@given(expressions(3))
@settings(max_examples=150, deadline=None)
def test_rewrites_reach_a_normal_form(expr):
    if not _typed(expr):
        return
    for rewrite, looped in ((simplify, _looped_simplify), (optimize, _looped_optimize)):
        once = rewrite(expr, SCOPE)
        assert str(rewrite(once, SCOPE)) == str(once), (rewrite.__name__, str(expr))
        reference, converged = looped(expr)
        if converged:
            assert once == reference, (rewrite.__name__, str(expr))
