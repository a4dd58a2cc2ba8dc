"""Update independence *without* complements (Section 4, end).

The paper closes Section 4 by noting that query independence strictly
implies update independence: a selection view ``W = sigma_c(R)`` is
update-independent with *no* auxiliary data (insertions and deletions
translate directly), while it is clearly not query-independent.

This module provides

* :func:`is_select_only_update_independent` — the paper's closing example as
  a predicate;
* :func:`self_maintainable_without_complement` — a syntactic
  self-maintainability check in the spirit of Quass et al. [18]: derive each
  view's maintenance expressions, fold occurrences of the warehouse views
  back into view references, and test whether any base relation remains
  (:func:`base_reads_without_complement` names the ones that do). It
  is *conservative* (sound "yes", possibly pessimistic "no" — e.g. it does
  not discover Example 2.1's Huyn-style multi-view self-maintainability,
  which the complement machinery handles instead);
* :func:`self_maintenance_analysis` — a per-warehouse report used by the
  examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, NamedTuple, Sequence, Tuple

from repro.algebra.deltas import (
    del_name,
    delta_scope,
    derive_delta,
    ins_name,
)
from repro.algebra.expressions import Empty, Expression, RelationRef
from repro.algebra.rewriting import fold_occurrences, substitute
from repro.algebra.simplify import simplify
from repro.errors import ExpressionError
from repro.schema.catalog import Catalog
from repro.views.psj import View


def is_select_only_update_independent(view: View, catalog: Catalog) -> bool:
    """Whether ``view`` is a selection over a single base relation.

    Such views are update-independent without any complement: for an
    insertion ``Delta r``, the new state is ``w ∪ sigma_c(Delta r)``; for a
    deletion, ``w - sigma_c(Delta r)`` (the paper's closing calculation).
    The final projection must keep all attributes (otherwise deletions are
    ambiguous under set semantics).
    """
    scope = {s.name: s.attributes for s in catalog.schemas()}
    try:
        psj = view.psj(scope)
    except ExpressionError:
        return False
    if len(psj.relations) != 1:
        return False
    return psj.is_sj(scope)


def _fold_views(expression: Expression, views: Sequence[View]) -> Expression:
    """Replace subtrees equal to a view definition by the view's name.

    This lets the self-maintainability check recognize, e.g., that
    ``pi_Z(R)`` inside a maintenance expression *is* the materialized view
    ``V = pi_Z(R)``.
    """
    return fold_occurrences(
        expression, {view.definition: RelationRef(view.name) for view in views}
    )


def base_reads_without_complement(
    catalog: Catalog,
    views: Sequence[View],
    updated: Iterable[str],
    insert_only: bool = False,
    delete_only: bool = False,
) -> Dict[str, FrozenSet[str]]:
    """The base relations each view's maintenance still reads, per view.

    For each view, derives the delta expressions for updates to ``updated``
    (the unused side folded to ``Empty`` under ``insert_only`` /
    ``delete_only``), folds view definitions back into view references,
    simplifies, and reads off the base relations that survive. Delta
    relations ``R__ins`` / ``R__del`` are not among them — they are part of
    the reported update.
    """
    updated_set = frozenset(updated)
    source_scope = {s.name: s.attributes for s in catalog.schemas()}
    sources = frozenset(source_scope)
    extended = delta_scope(source_scope, updated_set)
    for view in views:
        extended[view.name] = view.definition.attributes(source_scope)

    specialize: Dict[str, Expression] = {}
    for relation in updated_set:
        attrs = source_scope[relation]
        if insert_only:
            specialize[del_name(relation)] = Empty(attrs)
        if delete_only:
            specialize[ins_name(relation)] = Empty(attrs)

    reads: Dict[str, FrozenSet[str]] = {}
    for view in views:
        derived = derive_delta(view.definition, updated_set, source_scope)
        if specialize:
            derived = derived.map(lambda e: substitute(e, specialize))
        derived = derived.map(lambda e: _fold_views(e, views))
        derived = derived.map(lambda e: simplify(e, extended))
        reads[view.name] = sources & (
            derived.inserts.relation_names() | derived.deletes.relation_names()
        )
    return reads


def self_maintainable_without_complement(
    catalog: Catalog,
    views: Sequence[View],
    updated: Iterable[str],
    insert_only: bool = False,
    delete_only: bool = False,
) -> Dict[str, bool]:
    """Syntactic self-maintainability per view, without auxiliary data.

    A view is self-maintainable for updates to ``updated`` when no base
    relation reference survives its folded maintenance expressions
    (:func:`base_reads_without_complement`). Returns ``{view name: bool}``.
    """
    reads = base_reads_without_complement(
        catalog, views, updated, insert_only=insert_only, delete_only=delete_only
    )
    return {name: not read for name, read in reads.items()}


class SelfMaintenanceReport(NamedTuple):
    """Outcome of :func:`self_maintenance_analysis`."""

    select_only_views: Tuple[str, ...]
    self_maintainable_for_inserts: Dict[str, bool]
    self_maintainable_for_deletes: Dict[str, bool]
    needs_complement: bool

    def describe(self) -> str:
        """Human-readable, multi-line summary of the report."""
        lines = [
            f"select-only (update-independent with no auxiliary data): "
            f"{list(self.select_only_views)}",
            f"self-maintainable for inserts: {self.self_maintainable_for_inserts}",
            f"self-maintainable for deletes: {self.self_maintainable_for_deletes}",
            f"complement needed: {self.needs_complement}",
        ]
        return "\n".join(lines)


def self_maintenance_analysis(
    catalog: Catalog, views: Sequence[View]
) -> SelfMaintenanceReport:
    """Classify a warehouse definition's self-maintainability.

    Checks every view against updates to *each* base relation it involves
    (both pure insertions and pure deletions). ``needs_complement`` is true
    iff some view fails some check — the situation in which the paper's
    complement machinery earns its keep.
    """
    scope = {s.name: s.attributes for s in catalog.schemas()}
    select_only = tuple(
        view.name for view in views if is_select_only_update_independent(view, catalog)
    )
    inserts_ok: Dict[str, bool] = {view.name: True for view in views}
    deletes_ok: Dict[str, bool] = {view.name: True for view in views}
    for view in views:
        for relation in view.psj(scope).relations:
            ins = self_maintainable_without_complement(
                catalog, views, [relation], insert_only=True
            )
            dels = self_maintainable_without_complement(
                catalog, views, [relation], delete_only=True
            )
            inserts_ok[view.name] = inserts_ok[view.name] and ins[view.name]
            deletes_ok[view.name] = deletes_ok[view.name] and dels[view.name]
    needs = not (all(inserts_ok.values()) and all(deletes_ok.values()))
    return SelfMaintenanceReport(select_only, inserts_ok, deletes_ok, needs)
