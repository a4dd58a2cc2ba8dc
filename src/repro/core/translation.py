"""Query translation: Theorem 3.1, ``Q^ = Q ∘ W^{-1}``.

Section 3, Steps 3-4 of the paper: given the inverse mapping ``W^{-1}``
(Equation (4)), any query over the sources is answered at the warehouse by
substituting, for every base relation, its inverse expression. The
substitution is purely syntactic; correctness is Theorem 3.1 (and is
re-checked empirically in the test suite).

Besides the translation itself this module holds :func:`answer_query`,
the one body every ``answer()`` runs, and the static facts the
query-translation prover (:mod:`repro.analysis.query`) certifies:

* :func:`translation_read_set` — the warehouse relations the optimized
  translation will read, the static side of the answer sanitizer's
  comparison (``REPRO_CHECK_INVARIANTS``);
* :func:`translation_digest` — a canonical digest over every fact the
  translation depends on (schemata, warehouse definitions, inverses),
  recorded by ``python -m repro prove-query``.

Optimized translations are pure functions of ``(spec, query)``; they are
derived once and kept in the spec's plan table
(:meth:`repro.compiler.runtime.RefreshCompiler.query_plan`).

This file is on the query-serving hot path and is held to the
``scripts/check_hotpath.py`` rules: no environment reads, no timing, and
spans only through ``span_of`` — the sanitizer wiring lives in
:mod:`repro.core.warehouse`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import WarehouseError
from repro.algebra.evaluator import evaluate, evaluate_all
from repro.algebra.expressions import Expression
from repro.algebra.optimize import optimize
from repro.algebra.rewriting import substitute
from repro.algebra.simplify import simplify
from repro.obs.trace import span_of
from repro.storage.relation import Relation
from repro.views.psj import fold_onto_views
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import State
from repro.analysis.digest import canonical_digest


def translate_query(
    spec: WarehouseSpec, query: Expression, optimized: bool = False
) -> Expression:
    """Translate a source query into a warehouse query (``Q^``).

    Every reference to a base relation is replaced by its Equation (4)
    inverse; the result is simplified against the warehouse scope so that
    provably-empty complements vanish (Example 2.4's warehouse answers
    ``pi_clerk(Sale) union pi_clerk(Emp)`` without ever mentioning ``C_2``).

    ``optimized=True`` first answers every PSJ sub-query that matches a
    stored PSJ view from that view
    (:func:`~repro.views.psj.fold_onto_views`), then substitutes and runs
    selection pushdown and projection pruning
    (:func:`~repro.algebra.optimize.optimize`). The default is the
    paper-shaped substitution alone.

    Raises :class:`~repro.errors.WarehouseError` if the query references a
    relation that is neither a base relation nor a warehouse relation.

    Examples
    --------
    See ``tests/paper/test_query_independence.py`` for the paper's worked
    translation of ``pi_age(sigma[item='Computer'](Sale) join Emp)``.
    """
    _check_names(spec, query)
    if optimized:
        folded = fold_onto_views(query, spec.views, spec.source_scope())
        return optimize(substitute(folded, spec.inverses), spec.warehouse_scope())
    return simplify(substitute(query, spec.inverses), spec.warehouse_scope())


def answer_plan(spec: WarehouseSpec, query: Expression) -> Expression:
    """``query`` folded onto views and optimized, as ``translate_query``
    does, but each base relation left is read from its inverse image."""
    _check_names(spec, query)
    folded = fold_onto_views(query, spec.views, spec.source_scope())
    return optimize(folded, {**spec.source_scope(), **spec.warehouse_scope()})


def _check_names(spec: WarehouseSpec, query: Expression) -> None:
    known = set(spec.inverses) | set(spec.warehouse_names())
    unknown = query.relation_names() - known
    if unknown:
        raise WarehouseError(
            f"query references unknown relations {sorted(unknown)}; "
            f"known base relations: {sorted(spec.inverses)}"
        )


def translation_read_set(
    spec: WarehouseSpec, query: Expression
) -> Tuple[str, ...]:
    """The warehouse relations the optimized translation of ``query`` reads.

    This is the static read set the translation certificate records and the
    ``REPRO_CHECK_INVARIANTS`` sanitizer compares traced reads against: by
    Theorem 3.1 it contains warehouse names only, never a source relation.
    """
    translated = translate_query(spec, query, optimized=True)
    return tuple(sorted(translated.relation_names()))


def translation_digest(spec: WarehouseSpec) -> str:
    """Canonical digest over every fact query translation depends on.

    Covers the source schemata, the warehouse mapping ``W`` (each stored
    relation as an expression over sources) and the Equation (4) inverses.
    Any re-specification that changes what ``Q ∘ W^{-1}`` means changes
    this digest; ``prove-query`` documents record it.
    The hash is :func:`repro.analysis.digest.canonical_digest`, the same
    function the prover's certificates use.
    """
    document: Dict[str, object] = {
        "kind": "translation",
        "method": spec.method,
        "source_relations": {
            schema.name: list(schema.attributes)
            for schema in spec.catalog.schemas()
        },
        "warehouse": {
            name: str(expression)
            for name, expression in spec.definitions_over_sources().items()
        },
        "inverses": {
            name: str(expression) for name, expression in spec.inverses.items()
        },
    }
    return canonical_digest(document)


def with_images(
    spec: WarehouseSpec, plan: Expression, state: State, engine: Optional[str] = None
) -> Dict[str, Relation]:
    """``state`` plus ``plan``'s base relations, evaluated over it."""
    names = plan.relation_names() & spec.inverses.keys()
    images = evaluate_all({n: spec.inverses[n] for n in names}, state, engine=engine)
    return {**state, **images}


def answer_query(
    spec: WarehouseSpec,
    state: Union[State, Callable[[Expression], State]],
    query: Expression,
    *,
    tracer=None,
    engine: Optional[str] = None,
) -> Relation:
    """Answer a source query using warehouse relations only.

    The one answer body, under every kind of warehouse: look the plan up
    in the spec's plan table (:func:`answer_plan`, derived once per spec
    and query), open the ``answer`` span, evaluate — no source relation is
    ever touched. ``query`` is stated over base relations (and/or
    warehouse relations). ``state`` is the materialized warehouse state,
    or a function from the plan to the state to run it over with its base
    relations bound to their inverse images. ``tracer`` and ``engine`` are
    as in :func:`repro.algebra.evaluator.evaluate`.
    """
    # Function-level: repro.compiler.runtime imports this module.
    from repro.compiler.runtime import RefreshCompiler

    plan = RefreshCompiler.of(spec).query_plan(query)
    state = state(plan) if callable(state) else with_images(spec, plan, state, engine)
    with span_of(tracer, "answer", query=str(query)):
        return evaluate(plan, state, tracer=tracer, engine=engine)
