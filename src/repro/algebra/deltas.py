"""Symbolic change propagation (delta rules) for set-semantics algebra.

Section 4 of the paper plugs "an incremental view maintenance algorithm"
(e.g. Griffin/Libkin style) into its framework: derive, per view and per
update, expressions computing the view's change, then replace every base
relation by its inverse over warehouse views (Example 4.1). This module
implements the first half — sound and *exact* delta rules for set semantics.

Conventions
-----------
An update to base relation ``R`` is represented by two relation names bound
in the evaluation state: ``ins_name(R)`` (= ``R__ins``) for inserted tuples
and ``del_name(R)`` (= ``R__del``) for deleted tuples. Deltas are assumed
*effective*: inserts disjoint from ``R``, deletes contained in ``R``. Under
that assumption the derived pair ``(inserts, deletes)`` of every node ``E``
is exactly ``new(E) - old(E)`` and ``old(E) - new(E)``; no post-hoc
normalization is needed.

Rules (``I``/``D`` are the child deltas, ``Eo``/``En`` old and new values)::

    sigma_C(E):   I' = sigma_C(I)                 D' = sigma_C(D)
    pi_Z(E):      I' = pi_Z(I) - pi_Z(Eo)         D' = pi_Z(D) - pi_Z(En)
    pi_Z(E), E has a key K ⊆ Z (keys given):
                  I' = pi_Z(I) - pi_Z(D)          D' = pi_Z(D) - pi_Z(I)
    E1 join E2:   I' = (I1 join E2n) + (E1n join I2)
                  D' = (D1 join E2o) + (E1o join D2)
    E1 union E2:  I' = (I1 + I2) - (E1o + E2o)    D' = (D1 + D2) - (E1n + E2n)
    E1 minus E2:  I' = (I1 - E2n) + (D2 ∩ E1n)    D' = (D1 - E2o) + (I2 ∩ E1o)
    rho_m(E):     I' = rho_m(I)                   D' = rho_m(D)

(``∩`` is encoded as ``x - (x - y)``; ``+`` is union, ``-`` difference.)

The keyed projection rule reads only the child's deltas, so a deletion no
longer re-evaluates ``En``. Its precondition is that ``K`` (inferred by
:func:`infer_keys` from the declared base keys) holds in both the old and
the new state: a deleted row ``d`` and a surviving row ``e`` with
``pi_Z(d) = pi_Z(e)`` agree on ``K``, so ``e = d`` unless ``e`` is new, that
is ``e ∈ I``. Callers pass ``keys`` only when the states are promised to
satisfy them; without ``keys`` the general rule applies.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExpressionError
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
    Scope,
)
from repro.algebra.rewriting import substitute
from repro.algebra.simplify import simplify

INSERT_SUFFIX = "__ins"
DELETE_SUFFIX = "__del"


def ins_name(relation: str) -> str:
    """Name of the insert-delta relation for ``relation``."""
    return relation + INSERT_SUFFIX


def del_name(relation: str) -> str:
    """Name of the delete-delta relation for ``relation``."""
    return relation + DELETE_SUFFIX


class DeltaExpressions(NamedTuple):
    """The derived change of an expression: insert and delete expressions."""

    inserts: Expression
    deletes: Expression

    def map(self, func) -> "DeltaExpressions":
        """Apply ``func`` to both component expressions."""
        return DeltaExpressions(func(self.inserts), func(self.deletes))


def delta_scope(scope: Scope, updated: Iterable[str]) -> Dict[str, Tuple[str, ...]]:
    """``scope`` extended with the delta relation names for ``updated``."""
    extended = dict(scope)
    for name in updated:
        if name not in scope:
            raise ExpressionError(f"updated relation {name!r} not in scope")
        extended[ins_name(name)] = tuple(scope[name])
        extended[del_name(name)] = tuple(scope[name])
    return extended


def new_value_expression(expression: Expression, updated: Iterable[str]) -> Expression:
    """``expression`` over the *post-update* state.

    Every reference to an updated relation ``R`` is replaced by
    ``(R minus R__del) union R__ins``; references to unchanged relations stay.
    """
    replacements = {}
    for name in updated:
        replacements[name] = Union(
            Difference(RelationRef(name), RelationRef(del_name(name))),
            RelationRef(ins_name(name)),
        )
    return substitute(expression, replacements)


def _intersect(left: Expression, right: Expression) -> Expression:
    """Set intersection via double difference (no dedicated node needed)."""
    return Difference(left, Difference(left, right))


#: Declared keys by base relation name (``Catalog.key`` of each relation).
Keys = Mapping[str, Sequence[str]]


def _minimal(candidates: Iterable[FrozenSet[str]]) -> FrozenSet[FrozenSet[str]]:
    pool = set(candidates)
    return frozenset(key for key in pool if not any(other < key for other in pool))


def infer_keys(
    expression: Expression, scope: Scope, keys: Keys
) -> FrozenSet[FrozenSet[str]]:
    """The minimal attribute sets that are keys of ``expression``'s value.

    They hold in every state whose base relations satisfy the declared
    ``keys``. Selection and difference keep the (left) child's keys,
    projection those inside its attributes, and a join one side's keys
    when the shared attributes contain a key of the other side; the union
    of a key from each side is always a key. Union and rename claim
    nothing, and the full attribute set is always a key (set semantics),
    so the result is never empty.

    >>> from repro.algebra.parser import parse
    >>> scope = {"Sale": ("item", "clerk"), "Emp": ("clerk", "age")}
    >>> keys = {"Emp": ("clerk",)}
    >>> [sorted(key) for key in infer_keys(parse("Sale join Emp"), scope, keys)]
    [['clerk', 'item']]
    >>> [sorted(key) for key in infer_keys(parse("pi[clerk](Emp)"), scope, keys)]
    [['clerk']]
    """
    full = frozenset(expression.attributes(scope))
    if isinstance(expression, RelationRef):
        declared = keys.get(expression.name)
        return frozenset([frozenset(declared) if declared else full])
    if isinstance(expression, Select):
        return infer_keys(expression.child, scope, keys)
    if isinstance(expression, Difference):
        return infer_keys(expression.left, scope, keys)
    if isinstance(expression, Project):
        child = infer_keys(expression.child, scope, keys)
        return _minimal([key for key in child if key <= full] + [full])
    if isinstance(expression, Join):
        left = infer_keys(expression.left, scope, keys)
        right = infer_keys(expression.right, scope, keys)
        shared = expression.left.attribute_set(scope)
        shared &= expression.right.attribute_set(scope)
        candidates = [one | other for one in left for other in right]
        if any(key <= shared for key in right):
            candidates.extend(left)
        if any(key <= shared for key in left):
            candidates.extend(right)
        return _minimal(candidates)
    return frozenset([full])


def derive_delta(
    expression: Expression,
    updated: Iterable[str],
    scope: Scope,
    simplified: bool = True,
    keys: Optional[Keys] = None,
) -> DeltaExpressions:
    """Derive symbolic insert/delete expressions for ``expression``.

    Parameters
    ----------
    expression:
        The (view) expression whose change is wanted.
    updated:
        Names of base relations that carry deltas. All other relations are
        treated as unchanged (their deltas are empty, and the simplifier
        erases the corresponding branches — which is why, in Example 4.1, an
        insertion into ``Sale`` yields maintenance expressions mentioning only
        ``s join Emp`` and not any ``Emp``-delta terms).
    scope:
        Name -> attribute tuple for every relation in ``expression``.
    simplified:
        Simplify the derived expressions (on by default).
    keys:
        Declared keys by base relation name, given only when the old and
        the new state both satisfy them: a projection whose child has an
        inferred key inside the projected attributes then takes the keyed
        rule, which never re-evaluates the child's new value. ``None``
        (the default) keeps the general rule everywhere.

    Returns
    -------
    DeltaExpressions
        Expressions over the old-state relation names plus the delta names
        ``R__ins`` / ``R__del`` for each updated relation. Given effective
        base deltas, ``inserts`` evaluates exactly to ``new - old`` and
        ``deletes`` to ``old - new``.
    """
    updated_set = frozenset(updated)
    unknown = updated_set - set(scope)
    if unknown:
        raise ExpressionError(f"updated relations {sorted(unknown)} not in scope")
    result = _derive(expression, updated_set, scope, keys)
    if simplified:
        extended = delta_scope(scope, updated_set)
        result = result.map(lambda e: simplify(e, extended))
    return result


def _derive(
    expr: Expression, updated: FrozenSet[str], scope: Scope, keys: Optional[Keys]
) -> DeltaExpressions:
    if isinstance(expr, RelationRef):
        attrs = expr.attributes(scope)
        if expr.name in updated:
            return DeltaExpressions(
                RelationRef(ins_name(expr.name)), RelationRef(del_name(expr.name))
            )
        return DeltaExpressions(Empty(attrs), Empty(attrs))

    if isinstance(expr, Empty):
        return DeltaExpressions(Empty(expr.attrs), Empty(expr.attrs))

    if isinstance(expr, Select):
        child = _derive(expr.child, updated, scope, keys)
        return DeltaExpressions(
            Select(child.inserts, expr.condition),
            Select(child.deletes, expr.condition),
        )

    if isinstance(expr, Project):
        child = _derive(expr.child, updated, scope, keys)
        if keys is not None and any(
            key <= frozenset(expr.attrs) for key in infer_keys(expr.child, scope, keys)
        ):
            inserts = Project(child.inserts, expr.attrs)
            deletes = Project(child.deletes, expr.attrs)
            return DeltaExpressions(
                Difference(inserts, deletes), Difference(deletes, inserts)
            )
        old_child = expr.child
        new_child = new_value_expression(expr.child, updated)
        return DeltaExpressions(
            Difference(Project(child.inserts, expr.attrs), Project(old_child, expr.attrs)),
            Difference(Project(child.deletes, expr.attrs), Project(new_child, expr.attrs)),
        )

    if isinstance(expr, Join):
        left = _derive(expr.left, updated, scope, keys)
        right = _derive(expr.right, updated, scope, keys)
        left_old, right_old = expr.left, expr.right
        left_new = new_value_expression(expr.left, updated)
        right_new = new_value_expression(expr.right, updated)
        inserts = Union(
            Join(left.inserts, right_new), Join(left_new, right.inserts)
        )
        deletes = Union(
            Join(left.deletes, right_old), Join(left_old, right.deletes)
        )
        return DeltaExpressions(inserts, deletes)

    if isinstance(expr, Union):
        left = _derive(expr.left, updated, scope, keys)
        right = _derive(expr.right, updated, scope, keys)
        old_value = Union(expr.left, expr.right)
        new_value = new_value_expression(old_value, updated)
        inserts = Difference(Union(left.inserts, right.inserts), old_value)
        deletes = Difference(Union(left.deletes, right.deletes), new_value)
        return DeltaExpressions(inserts, deletes)

    if isinstance(expr, Difference):
        left = _derive(expr.left, updated, scope, keys)
        right = _derive(expr.right, updated, scope, keys)
        left_old, right_old = expr.left, expr.right
        left_new = new_value_expression(expr.left, updated)
        right_new = new_value_expression(expr.right, updated)
        inserts = Union(
            Difference(left.inserts, right_new), _intersect(right.deletes, left_new)
        )
        deletes = Union(
            Difference(left.deletes, right_old), _intersect(right.inserts, left_old)
        )
        return DeltaExpressions(inserts, deletes)

    if isinstance(expr, Rename):
        child = _derive(expr.child, updated, scope, keys)
        return DeltaExpressions(
            Rename(child.inserts, expr.mapping), Rename(child.deletes, expr.mapping)
        )

    raise ExpressionError(f"cannot derive deltas for {type(expr).__name__}")
