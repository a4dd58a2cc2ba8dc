"""Algebraic simplification of expression trees.

The rewriter applies standard set-algebra identities bottom-up until no rule
applies anywhere. Its job in this library is twofold:

* keep machine-built expressions readable — query translation (Section 3 of
  the paper) and symbolic maintenance derivation (Section 4) substitute and
  expand aggressively, producing trees with many trivial sub-expressions;
* realize the paper's empty-complement collapses — when constraint analysis
  proves a complement empty (Example 2.4), the complement expression is an
  :class:`~repro.algebra.expressions.Empty` leaf and the rules below erase it
  from every surrounding union, join, and difference.

All rules are sound for set semantics and preserve the output attribute set.

One walk reaches the normal form (:func:`_normal_form`, which
:func:`~repro.algebra.optimize.optimize` runs with its pushdown rules added):
children first, then the node, and a node a rule builds is walked again.
The walk terminates because every rule here makes the tree strictly
smaller — fewer nodes, or (constant folding) a condition with fewer
constant-to-constant comparisons — and a rule that does not apply returns
its node itself, so "changed" is an identity test, not a structural one.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.algebra.conditions import (
    And,
    Comparison,
    Condition,
    Constant,
    FalseCondition,
    TrueCondition,
    conjoin,
)
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    Rename,
    Select,
    Union,
)

_Rule = Callable[[Expression, object], Expression]


def simplify(expression: Expression, scope=None) -> Expression:
    """Simplify ``expression`` to its normal form.

    Parameters
    ----------
    expression:
        The tree to simplify.
    scope:
        Optional scope (name -> attribute tuple). When given, additional
        schema-aware rules fire (e.g. a projection onto *all* attributes of
        its input is dropped).

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> str(simplify(parse("(Sale minus empty[item, clerk]) union empty[item, clerk]")))
    'Sale'
    """
    return _normal_form(expression, scope, (_simplify_node,))


def _normal_form(expression: Expression, scope, rules: Sequence[_Rule]) -> Expression:
    """``expression`` rewritten by ``rules`` until none applies to any node.

    Children are walked first, then each rule is tried on the node in turn.
    A rule returns its node itself when it does not apply; anything else it
    returns is walked again, except the subtrees already in normal form
    that it reuses, which ``done`` holds by identity (and keeps alive) for
    the length of the walk. A rule set with a cycle recurses until
    ``RecursionError``.
    """
    done: Dict[int, Expression] = {}

    def walk(expr: Expression) -> Expression:
        if id(expr) in done:
            return expr
        children = expr.children()
        walked = tuple(walk(child) for child in children)
        if any(new is not old for new, old in zip(walked, children)):
            expr = expr.with_children(walked)
        for rule in rules:
            rewritten = rule(expr, scope)
            if rewritten is not expr:
                return walk(rewritten)
        done[id(expr)] = expr
        return expr

    return walk(expression)


def _attrs(expr: Expression, scope) -> Optional[Tuple[str, ...]]:
    """Output attributes of ``expr``, or ``None`` when not derivable."""
    if isinstance(expr, Empty):
        return expr.attrs
    if scope is None:
        return None
    try:
        return expr.attributes(scope)
    except Exception:
        return None


def _is_empty(expr: Expression) -> bool:
    return isinstance(expr, Empty)


def _empty_like(expr: Expression, scope) -> Expression:
    attrs = _attrs(expr, scope)
    if attrs is None:
        return expr  # cannot prove the schema; leave untouched
    return Empty(attrs)


def _fold_constant_comparison(condition: Condition) -> Condition:
    """Evaluate comparisons between two constants."""
    if isinstance(condition, Comparison):
        if isinstance(condition.left, Constant) and isinstance(condition.right, Constant):
            from repro.algebra.conditions import FALSE, TRUE, _OPS

            try:
                holds = _OPS[condition.op](condition.left.value, condition.right.value)
            except TypeError:
                return condition
            return TRUE if holds else FALSE
    if isinstance(condition, And):
        return conjoin([_fold_constant_comparison(p) for p in condition.parts])
    return condition


def _union_parts(expr: Expression) -> list:
    """The leaves of a (possibly nested) union, left to right."""
    if isinstance(expr, Union):
        return _union_parts(expr.left) + _union_parts(expr.right)
    return [expr]


def _simplify_node(expr: Expression, scope) -> Expression:
    if isinstance(expr, Select):
        condition = _fold_constant_comparison(expr.condition)
        if isinstance(condition, TrueCondition):
            return expr.child
        if isinstance(condition, FalseCondition) or _is_empty(expr.child):
            result = _empty_like(expr.child, scope)
            if isinstance(result, Empty):
                return result
            return expr if condition == expr.condition else Select(expr.child, condition)
        # sigma[c1](sigma[c2](e)) -> sigma[c1 and c2](e)
        if isinstance(expr.child, Select):
            merged = conjoin([condition, expr.child.condition])
            return Select(expr.child.child, merged)
        # Folding rebuilds every And through conjoin: keep the node unless
        # a comparison actually folded.
        return expr if condition == expr.condition else Select(expr.child, condition)

    if isinstance(expr, Project):
        # pi over Empty -> Empty over the projected attributes.
        if _is_empty(expr.child):
            return Empty(expr.attrs)
        # pi[Z1](pi[Z2](e)) -> pi[Z1](e)
        if isinstance(expr.child, Project):
            return Project(expr.child.child, expr.attrs)
        # pi onto all attributes of the child is the identity.
        child_attrs = _attrs(expr.child, scope)
        if child_attrs is not None and set(child_attrs) == set(expr.attrs):
            return expr.child
        # pi[Z](e1 union e2) -> pi[Z](e1) union pi[Z](e2): only useful when a
        # side is empty, which the Union rule already handles; skip.
        return expr

    if isinstance(expr, Join):
        # Joining with an empty relation is empty iff the empty side's
        # attributes do not vanish; with natural join the result is always
        # empty when one side is empty (even a cartesian product with the
        # empty set is empty).
        if _is_empty(expr.left) or _is_empty(expr.right):
            return _empty_like(expr, scope)
        # e join e -> e (idempotent for identical subtrees).
        if expr.left == expr.right:
            return expr.left
        return expr

    if isinstance(expr, Union):
        if _is_empty(expr.left):
            return expr.right
        if _is_empty(expr.right):
            return expr.left
        # Flatten nested unions and deduplicate structurally equal branches
        # (union is associative, commutative, idempotent).
        parts = _union_parts(expr)
        unique = []
        seen = set()
        for part in parts:
            key = part._key()
            if key not in seen:
                seen.add(key)
                unique.append(part)
        if len(unique) < len(parts):
            rebuilt = unique[0]
            for part in unique[1:]:
                rebuilt = Union(rebuilt, part)
            return rebuilt
        # (e1 minus e2) union e2 stays as-is: NOT equal to e1 in general
        # (it equals e1 union e2); no rule.
        return expr

    if isinstance(expr, Difference):
        if _is_empty(expr.right):
            return expr.left
        if _is_empty(expr.left):
            return _empty_like(expr, scope)
        if expr.left == expr.right:
            return _empty_like(expr, scope)
        # (e1 minus e2) minus e3 with e2 == e3 -> e1 minus e2
        if isinstance(expr.left, Difference) and expr.left.right == expr.right:
            return expr.left
        return expr

    if isinstance(expr, Rename):
        if _is_empty(expr.child):
            child_attrs = expr.child.attrs  # type: ignore[union-attr]
            return Empty(tuple(expr.mapping.get(a, a) for a in child_attrs))
        # rho(rho(e)) -> composed rho
        if isinstance(expr.child, Rename):
            inner = expr.child.mapping
            outer = expr.mapping
            composed = {}
            for old, mid in inner.items():
                composed[old] = outer.get(mid, mid)
            for old, new in outer.items():
                if old not in inner.values() and old not in composed:
                    composed[old] = new
            composed = {o: n for o, n in composed.items() if o != n}
            if not composed:
                return expr.child.child
            return Rename(expr.child.child, composed)
        return expr

    return expr
