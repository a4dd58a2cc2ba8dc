"""PSJ views: recognition, normalization, and the named ``View`` wrapper.

A PSJ view is ``pi_Z(sigma_C(R_{i1} join ... join R_{ik}))`` over distinct
base relations (Section 2 of the paper). Arbitrary project/select/join trees
are normalized into this shape when it is sound to do so:

* selections commute upward through joins and other selections;
* nested projections compose; a projection must sit *above* all joins
  (a projection strictly below a join changes the join attributes and is
  rejected — write such views in normal form explicitly).

The normal form keeps the paper's three ingredients explicit, which is what
the complement machinery consumes: the relation list (for ``V_R``), the final
projection ``Z`` (for ``V_K``: does the view retain the key?), and the
selection condition (join-completeness analysis requires it to be trivial).
Query translation consumes the same three to answer a PSJ sub-query from
the view it matches (:func:`fold_onto_views`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.algebra.conditions import Condition, TRUE, TrueCondition, conjoin
from repro.algebra.expressions import (
    Expression,
    Join,
    Project,
    RelationRef,
    Select,
    Scope,
    join as join_expr,
    select as select_expr,
)
from repro.schema.schema import check_name


class PSJView:
    """The normal form ``pi_Z(sigma_C(R_1 join ... join R_k))``.

    Attributes
    ----------
    relations:
        The distinct base relations joined, in join order.
    condition:
        The (possibly TRUE) selection condition.
    projection:
        The final projection attributes ``Z``, or ``None`` for an SJ view
        (no final projection — all attributes are kept, the case in which
        Theorem 2.1 guarantees minimal complements).
    """

    __slots__ = ("relations", "condition", "projection")

    def __init__(
        self,
        relations: Sequence[str],
        condition: Condition = TRUE,
        projection: Optional[Sequence[str]] = None,
    ) -> None:
        rels = tuple(relations)
        if not rels:
            raise ExpressionError("a PSJ view joins at least one relation")
        if len(set(rels)) != len(rels):
            raise ExpressionError(
                f"PSJ views join distinct relations; {rels} repeats one "
                "(self-joins require renaming and are outside the paper's fragment)"
            )
        for name in rels:
            check_name(name, "relation")
        self.relations = rels
        self.condition = condition
        self.projection = tuple(projection) if projection is not None else None

    # ------------------------------------------------------------------

    def expression(self) -> Expression:
        """The canonical expression for this view."""
        body: Expression = join_expr(*[RelationRef(name) for name in self.relations])
        body = select_expr(body, self.condition)
        if self.projection is not None:
            body = Project(body, self.projection)
        return body

    def attributes(self, scope: Scope) -> Tuple[str, ...]:
        """The view's output attributes (``Z_i`` in the paper)."""
        return self.expression().attributes(scope)

    def joined_attributes(self, scope: Scope) -> FrozenSet[str]:
        """All attributes of the underlying join (before projection)."""
        out = set()
        for name in self.relations:
            out.update(scope[name])
        return frozenset(out)

    def is_sj(self, scope: Scope) -> bool:
        """Whether this is an SJ view: the projection keeps *all* attributes.

        Theorem 2.1: for sets of SJ views, Proposition 2.2 yields minimal
        complements.
        """
        if self.projection is None:
            return True
        return set(self.projection) == set(self.joined_attributes(scope))

    def involves(self, relation: str) -> bool:
        """Whether ``relation`` occurs in this view's join (``V in V_R``)."""
        return relation in self.relations

    def has_trivial_condition(self) -> bool:
        """Whether the selection condition is TRUE."""
        return isinstance(self.condition, TrueCondition)

    def retains(self, attributes: Iterable[str], scope: Scope) -> bool:
        """Whether all of ``attributes`` survive the final projection."""
        return set(attributes) <= set(self.attributes(scope))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PSJView):
            return NotImplemented
        return (
            set(self.relations) == set(other.relations)
            and self.condition == other.condition
            and (
                (self.projection is None) == (other.projection is None)
                and (
                    self.projection is None
                    or set(self.projection) == set(other.projection or ())
                )
            )
        )

    def __hash__(self) -> int:
        proj = frozenset(self.projection) if self.projection is not None else None
        return hash((frozenset(self.relations), self.condition, proj))

    def __repr__(self) -> str:
        return f"PSJView({self.expression()})"

    def __str__(self) -> str:
        return str(self.expression())


def _collect(
    expr: Expression,
    relations: List[str],
    conditions: List[Condition],
    below_join: bool,
) -> None:
    """Walk a select/join tree, pulling selections up and leaves out."""
    if isinstance(expr, RelationRef):
        relations.append(expr.name)
        return
    if isinstance(expr, Select):
        conditions.append(expr.condition)
        _collect(expr.child, relations, conditions, below_join)
        return
    if isinstance(expr, Join):
        _collect(expr.left, relations, conditions, True)
        _collect(expr.right, relations, conditions, True)
        return
    if isinstance(expr, Project):
        if below_join:
            raise ExpressionError(
                f"projection below a join is not in PSJ form: {expr}"
            )
        raise ExpressionError(f"unexpected nested projection placement: {expr}")
    raise ExpressionError(
        f"{type(expr).__name__} nodes are not part of the PSJ fragment: {expr}"
    )


def as_psj(expression: Expression, scope: Optional[Scope] = None) -> PSJView:
    """Normalize an expression into :class:`PSJView` form.

    Raises :class:`~repro.errors.ExpressionError` if the expression is not a
    PSJ view (contains union/difference/rename, repeats a relation, or puts a
    projection below a join).

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> view = as_psj(parse("pi[item, age](sigma[age > 21](Sale join Emp))"))
    >>> view.relations
    ('Sale', 'Emp')
    >>> str(view.condition)
    'age > 21'
    """
    projection: Optional[Tuple[str, ...]] = None
    top = expression
    top_conditions: List[Condition] = []
    # Peel selections and (composing) projections off the top.
    while True:
        if isinstance(top, Project):
            if projection is None:
                projection = top.attrs
            # An inner projection composes away (outer wins) only when the
            # outer projection is a subset; pi[Z1](pi[Z2](e)) = pi[Z1](e)
            # whenever Z1 subseteq Z2, which the type check enforces.
            top = top.child
            continue
        if isinstance(top, Select) and projection is None:
            top_conditions.append(top.condition)
            top = top.child
            continue
        if isinstance(top, Select) and projection is not None:
            # sigma below the final projection: legal, keep peeling.
            top_conditions.append(top.condition)
            top = top.child
            continue
        break

    relations: List[str] = []
    conditions: List[Condition] = list(top_conditions)
    _collect(top, relations, conditions, False)
    condition = conjoin(conditions)
    view = PSJView(tuple(relations), condition, projection)
    if scope is not None:
        view.attributes(scope)  # type-check against the scope
    return view


def _conjuncts(condition: Condition) -> Tuple[Condition, ...]:
    """The conjuncts of ``condition``; none for ``TRUE``."""
    return () if isinstance(condition, TrueCondition) else condition.conjuncts()


def fold_onto_views(
    expression: Expression, views: Sequence[View], scope: Scope
) -> Expression:
    """Answer each PSJ sub-expression from a stored view it matches.

    A sub-expression (largest first) whose normal form is
    ``pi_Y(sigma_c(R_1 join ... join R_k))`` over relations of ``scope``
    becomes ``pi_Y(sigma_{c - d}(V))`` when a PSJ view
    ``V = pi_X(sigma_d(...))`` joins the same set of relations, every
    conjunct of ``d`` is a conjunct of ``c``, and ``Y`` together with the
    attributes of ``c - d`` lies inside ``X``. That is set-semantics
    algebra alone — ``sigma`` commutes with ``pi_X`` when ``X`` keeps its
    attributes — so no constraint is needed. Views without a PSJ form are
    skipped; a rename, union, difference or self-join is never folded
    itself, only searched for foldable operands.

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> scope = {"Sale": ("item", "clerk"), "Emp": ("clerk", "age")}
    >>> sold = View("Sold", parse("Sale join Emp"))
    >>> query = parse("pi[age](sigma[item = 'TV'](Sale) join Emp)")
    >>> print(fold_onto_views(query, [sold], scope))
    pi[age](sigma[item = 'TV'](Sold))
    """
    # relation set -> [(view name, keys of its conjuncts, its attributes)]
    by_relations: Dict[FrozenSet[str], list] = {}
    for view in views:
        try:
            psj = view.psj(scope)
        except ExpressionError:
            continue
        by_relations.setdefault(frozenset(psj.relations), []).append((
            view.name,
            frozenset(part._key() for part in _conjuncts(psj.condition)),
            frozenset(psj.attributes(scope)),
        ))

    def fold(node: Expression) -> Expression:
        matching = by_relations.get(node.relation_names())
        if matching:
            try:
                query = as_psj(node, scope)
            except ExpressionError:
                pass
            else:
                conjuncts = _conjuncts(query.condition)
                present = {part._key() for part in conjuncts}
                kept = query.attributes(scope)
                for name, required, stored in matching:
                    if not required <= present:
                        continue
                    residual = conjoin(
                        part for part in conjuncts if part._key() not in required
                    )
                    if set(kept) | residual.attributes() <= stored:
                        folded = select_expr(RelationRef(name), residual)
                        return folded if set(kept) == stored else Project(folded, kept)
        children = node.children()
        folded_children = tuple(fold(child) for child in children)
        if folded_children == children:
            return node
        return node.with_children(folded_children)

    return fold(expression) if by_relations else expression


class View:
    """A named view: the warehouse definition's unit.

    Wraps an arbitrary expression; :meth:`psj` exposes the PSJ normal form
    when it exists (complement computation requires it).
    """

    __slots__ = ("name", "definition", "_psj")

    def __init__(self, name: str, definition: Expression) -> None:
        self.name = check_name(name, "view")
        self.definition = definition
        self._psj: Optional[PSJView] = None

    def psj(self, scope: Optional[Scope] = None) -> PSJView:
        """This view in PSJ normal form (cached)."""
        if self._psj is None:
            self._psj = as_psj(self.definition, scope)
        return self._psj

    def is_psj(self) -> bool:
        """Whether the definition normalizes to a PSJ view."""
        try:
            self.psj()
        except ExpressionError:
            return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.name == other.name and self.definition == other.definition

    def __hash__(self) -> int:
        return hash((self.name, self.definition))

    def __repr__(self) -> str:
        return f"View({self.name!r}, {self.definition})"

    def __str__(self) -> str:
        return f"{self.name} = {self.definition}"
