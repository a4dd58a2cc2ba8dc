"""Heuristic logical optimization: selection pushdown, projection pruning.

Translated queries (``Q ∘ W⁻¹``) and derived maintenance expressions keep
whole inverse expressions under selections and projections; pushing those
down cuts intermediate results substantially (benchmark E6). All rules are
classical and sound for set semantics:

* ``sigma_c(l ⋈ r)``   — conjuncts referencing only one side move there;
* ``sigma_c(l ∪ r)``   — distributes to both sides;
* ``sigma_c(l − r)``   — distributes to both sides;
* ``sigma_c(pi_Z(e))`` — commutes inside (condition attrs are within Z),
  unless ``e`` is a leaf: ``sigma_c(pi_Z(R))`` is the normal form;
* ``sigma_c(rho(e))``  — commutes inside with renamed condition;
* ``pi_Z(l ⋈ r)``      — each side keeps only Z plus the join attributes;
* ``pi_Z(l ∪ r)``      — distributes to both sides;
* ``pi_Z(sigma_c(e))`` — narrows ``e`` to Z plus the condition attributes
  (a join ``e`` by narrowing its sides).

A scope (name -> attributes) is required: the rules need subtree schemas.
The rules run in the same bottom-up walk as
:func:`~repro.algebra.simplify.simplify`'s, after them at each node.

The walk terminates because no rule undoes another: selections and
projections only move toward the leaves, a narrowing projection is built
only where it drops attributes, and the simplify rules only shrink the
tree. Two orientations keep that true. Narrowing ``pi_Z(sigma_c(R))``
builds ``sigma_c(pi_K(R))``, which would commute back to
``pi_K(sigma_c(R))`` — and ``pi_Z`` absorb ``pi_K`` — if a selection sank
below a projection of a leaf; and a join under a selection is narrowed by
its sides, because a projection wrapped round the join would let the
selection sink back through it the same way.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.algebra.conditions import Condition, TrueCondition, conjoin
from repro.algebra.expressions import (
    Difference,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Scope,
    Select,
    Union,
)
from repro.algebra.simplify import _normal_form, _simplify_node


def optimize(expression: Expression, scope: Scope) -> Expression:
    """Push selections and prune projections, simplifying as it goes.

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> scope = {"R": ("a", "b"), "S": ("b", "c")}
    >>> print(optimize(parse("sigma[a = 1 and c = 2](R join S)"), scope))
    sigma[a = 1](R) join sigma[c = 2](S)
    """
    return _normal_form(expression, scope, (_simplify_node, _push))


def _push(expr: Expression, scope: Scope) -> Expression:
    if isinstance(expr, Select):
        return _push_select(expr, scope)
    if isinstance(expr, Project):
        return _push_project(expr, scope)
    return expr


def _split_conjuncts(
    condition: Condition, attrs: frozenset
) -> Tuple[List[Condition], List[Condition]]:
    """Partition conjuncts into (within ``attrs``, rest)."""
    inside: List[Condition] = []
    outside: List[Condition] = []
    for part in condition.conjuncts():
        if part.attributes() <= attrs:
            inside.append(part)
        else:
            outside.append(part)
    return inside, outside


def _push_select(expr: Select, scope: Scope) -> Expression:
    child = expr.child
    condition = expr.condition

    if isinstance(child, Join):
        left_attrs = child.left.attribute_set(scope)
        right_attrs = child.right.attribute_set(scope)
        left_parts, rest = _split_conjuncts(condition, left_attrs)
        right_parts, remaining = _split_conjuncts(conjoin(rest), right_attrs)
        if not left_parts and not right_parts:
            return expr
        new_left: Expression = child.left
        if left_parts:
            new_left = Select(child.left, conjoin(left_parts))
        new_right: Expression = child.right
        if right_parts:
            new_right = Select(child.right, conjoin(right_parts))
        out: Expression = Join(new_left, new_right)
        kept = conjoin(remaining)
        if not isinstance(kept, TrueCondition):
            out = Select(out, kept)
        return out

    if isinstance(child, Union):
        return Union(
            Select(child.left, condition), Select(child.right, condition)
        )

    if isinstance(child, Difference):
        # sigma_c(l - r) == sigma_c(l) - r  (and also == sigma_c(l) -
        # sigma_c(r)); subtracting the unfiltered right side is valid and
        # cheaper to push.
        return Difference(Select(child.left, condition), child.right)

    if isinstance(child, Project) and not isinstance(child.child, RelationRef):
        return Project(Select(child.child, condition), child.attrs)

    if isinstance(child, Rename):
        inverse = {new: old for old, new in child.mapping.items()}
        return Rename(Select(child.child, condition.renamed(inverse)), child.mapping)

    return expr


def _narrow(side: Expression, keep: frozenset, scope: Scope) -> Expression:
    """``side`` projected onto ``keep ∩ attrs(side)`` (if that narrows it)."""
    attrs = side.attributes(scope)
    wanted = tuple(a for a in attrs if a in keep)
    if len(wanted) == len(attrs) or not wanted:
        return side
    return Project(side, wanted)


def _narrow_join(join: Join, keep: frozenset, scope: Scope) -> Expression:
    """``join`` with each side narrowed to ``keep`` plus the join attributes."""
    keep = keep | (join.left.attribute_set(scope) & join.right.attribute_set(scope))
    left = _narrow(join.left, keep, scope)
    right = _narrow(join.right, keep, scope)
    if left is join.left and right is join.right:
        return join
    return Join(left, right)


def _push_project(expr: Project, scope: Scope) -> Expression:
    child = expr.child
    target = frozenset(expr.attrs)

    if isinstance(child, Join):
        narrowed = _narrow_join(child, target, scope)
        return expr if narrowed is child else Project(narrowed, expr.attrs)

    if isinstance(child, Union):
        return Union(
            Project(child.left, expr.attrs), Project(child.right, expr.attrs)
        )

    if isinstance(child, Select):
        keep = target | child.condition.attributes()
        inner = child.child
        if isinstance(inner, Join):
            narrowed = _narrow_join(inner, keep, scope)
        else:
            narrowed = _narrow(inner, keep, scope)
        if narrowed is inner:
            return expr
        return Project(Select(narrowed, child.condition), expr.attrs)

    return expr
