"""Update independence: maintenance expressions and incremental refresh.

Section 4 of the paper: with a complement stored, the warehouse mapping
``W`` is invertible, so the correct new warehouse state after an update
``u`` is ``w' = W(u(W^{-1}(w)))`` (Theorem 4.1). Naively that recomputes
every view; the paper instead derives *incremental maintenance expressions*
by (i) applying a classical delta-rule algorithm to each view definition and
(ii) replacing every base-relation reference by its Equation (4) inverse —
Example 4.1 carries this out for the running example.

This module implements both:

* :func:`maintenance_expressions` — the symbolic derivation (i)+(ii); the
  resulting expressions mention only warehouse relations and the update's
  delta relations (``R__ins`` / ``R__del``);
* :func:`refresh_state` — the numeric engine: normalize the reported update
  to effective form (one ``W^{-1}`` evaluation per updated relation — a
  warehouse-local query, never a source query), bind the delta relations,
  interpret the fused plan of the update's shape and side mask
  (:mod:`repro.compiler.fuse` — the derivation above, chain-fused, with
  recomputed old and new values replaced by references), and apply the
  resulting per-relation deltas;
* :func:`full_recompute_state` — the ``w' = W(u(W^{-1}(w)))`` baseline used
  in the benchmarks.

Plans are pure functions of ``(spec, update shape, side mask)``; they are
derived once and cached on the spec
(:class:`repro.compiler.runtime.RefreshCompiler`).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import WarehouseError
from repro.algebra.deltas import (
    DeltaExpressions,
    del_name,
    delta_scope,
    derive_delta,
    ins_name,
)
from repro.algebra.evaluator import EvalStats, EvaluationCache, evaluate, evaluate_all
from repro.algebra.expressions import Empty, Expression
from repro.algebra.expressions import RelationRef
from repro.algebra.rewriting import fold_occurrences, substitute
from repro.algebra.simplify import simplify
from repro.obs.trace import span_of
from repro.storage.relation import Relation
from repro.storage.update import Delta, Update
from repro.core.complement import WarehouseSpec

State = Mapping[str, Relation]


class MaintenancePlan:
    """Maintenance expressions for one combination of updated relations.

    ``expressions`` maps each stored warehouse relation to its
    :class:`~repro.algebra.deltas.DeltaExpressions`, stated over warehouse
    relation names plus the delta names of the updated relations.
    """

    __slots__ = ("updated", "expressions")

    def __init__(
        self, updated: FrozenSet[str], expressions: Dict[str, DeltaExpressions]
    ) -> None:
        self.updated = updated
        self.expressions = expressions

    def describe(self) -> str:
        """Human-readable rendering (the shape shown in Example 4.1)."""
        lines = [f"updated: {sorted(self.updated)}"]
        for name, delta in self.expressions.items():
            lines.append(f"  {name}' = ({name} minus [{delta.deletes}]) union [{delta.inserts}]")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MaintenancePlan(updated={sorted(self.updated)})"


def maintenance_expressions(
    spec: WarehouseSpec,
    updated: Iterable[str],
    insert_only: bool = False,
    delete_only: bool = False,
) -> MaintenancePlan:
    """Derive warehouse-only maintenance expressions (Example 4.1).

    Parameters
    ----------
    spec:
        The warehouse specification (must carry a complement; that is what
        makes the inverse — and hence update independence — available).
    updated:
        Base relations the update touches.
    insert_only, delete_only:
        Specialize the derivation for pure insertions (the paper's set
        ``s``) or pure deletions: the unused delta relations are replaced by
        the empty relation and simplified away, which reproduces the compact
        expressions of Example 4.1.
    """
    updated_set = frozenset(updated)
    unknown = updated_set - set(spec.inverses)
    if unknown:
        raise WarehouseError(f"cannot maintain unknown relations {sorted(unknown)}")
    source_scope = spec.source_scope()
    warehouse_scope = spec.warehouse_scope()
    extended_scope = delta_scope(
        {**source_scope, **warehouse_scope}, updated_set
    )

    specialize: Dict[str, Expression] = {}
    for relation in updated_set:
        attrs = source_scope[relation]
        if insert_only:
            specialize[del_name(relation)] = Empty(attrs)
        if delete_only:
            specialize[ins_name(relation)] = Empty(attrs)

    # Recognize materialized warehouse relations inside the derived
    # expressions before falling back to inverse substitution: old-value
    # subtrees that *are* a view (or a complement) stay as a single
    # reference, which reproduces the compact forms of Example 4.1.
    foldable = {
        definition: RelationRef(name)
        for name, definition in spec.definitions_over_sources().items()
    }

    expressions: Dict[str, DeltaExpressions] = {}
    for name, definition in spec.definitions_over_sources().items():
        derived = derive_delta(definition, updated_set, source_scope)
        derived = derived.map(lambda e: fold_occurrences(e, foldable))
        # Replace remaining base relations by their inverses (step (ii)).
        derived = derived.map(lambda e: substitute(e, spec.inverses))
        if specialize:
            derived = derived.map(lambda e: substitute(e, specialize))
        derived = derived.map(lambda e: simplify(e, extended_scope))
        expressions[name] = derived
    return MaintenancePlan(updated_set, expressions)


def delta_bindings(update: Update, scope: Mapping[str, Tuple[str, ...]]) -> Dict[str, Relation]:
    """Bind an update's deltas under the ``R__ins`` / ``R__del`` names."""
    bindings: Dict[str, Relation] = {}
    for delta in update:
        attrs = scope[delta.relation]
        bindings[ins_name(delta.relation)] = delta.inserts.reorder(attrs)
        bindings[del_name(delta.relation)] = delta.deletes.reorder(attrs)
    return bindings


def normalize_update(
    spec: WarehouseSpec,
    warehouse: State,
    update: Update,
    cache: Optional[EvaluationCache] = None,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
    engine: Optional[str] = None,
) -> Update:
    """The update's effective form w.r.t. the *reconstructed* base state.

    Only the updated relations are reconstructed (one inverse evaluation
    each, against warehouse relations — no source access). With a
    cross-update ``cache``, inverses of relations whose warehouse inputs
    did not change since the last refresh are served without evaluation.
    With a ``tracer``, each inverse evaluation nests under a
    ``reconstruct`` span carrying the relation name.
    """
    reconstructed: Dict[str, Relation] = {}
    memo = cache if cache is not None else {}
    for delta in update:
        if delta.relation not in spec.inverses:
            raise WarehouseError(f"update touches unknown relation {delta.relation!r}")
        with span_of(tracer, "reconstruct", relation=delta.relation) as span:
            result = evaluate(
                spec.inverses[delta.relation],
                warehouse,
                cache=memo,
                stats=stats,
                fastpath=fastpath,
                tracer=tracer,
                engine=engine,
            )
            span.set(rows_out=len(result))
        reconstructed[delta.relation] = result
    return update.normalized(reconstructed)


def side_mask(update: Update) -> str:
    """Which delta sides ``update`` carries: the ``mode`` its plan is cut for.

    ``"insert-only"`` / ``"delete-only"`` select the Example 4.1 compact
    forms (the unused side folded to the empty relation before fusion);
    anything else runs the ``"mixed"`` plan.
    """
    has_inserts = any(len(delta.inserts) for delta in update)
    has_deletes = any(len(delta.deletes) for delta in update)
    if has_inserts and not has_deletes:
        return "insert-only"
    if has_deletes and not has_inserts:
        return "delete-only"
    return "mixed"


def refresh_state(
    spec: WarehouseSpec,
    warehouse: State,
    update: Update,
    cache: Optional[EvaluationCache] = None,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
    engine: Optional[str] = None,
) -> Tuple[Dict[str, Relation], Dict[str, Delta]]:
    """Incrementally fold ``update`` into the warehouse state.

    Returns ``(new_state, applied)`` where ``applied`` records the effective
    per-warehouse-relation deltas (useful for cascading, e.g. into aggregate
    views). Uses only warehouse relations and the update — the source
    databases are never consulted (Theorem 4.1's update independence).

    The update is normalized to effective form, and the fused plan for its
    shape and side mask (:func:`repro.compiler.fuse.fused_plan`, derived
    once per spec and cached on it) is interpreted program by program:
    ``pruned`` programs carry their relation over untouched, the others
    evaluate their insert and delete expressions, patch
    ``(w − deletes) ∪ inserts`` and bind the result as ``<name>__new`` for
    the programs after them.

    ``cache`` may be a persistent :class:`EvaluationCache` shared across
    refreshes: unchanged warehouse relations keep their object identity from
    one refresh to the next (see below), so cached sub-expressions stay
    valid and only delta-touched sub-trees re-evaluate. ``stats`` collects
    :class:`EvalStats` counters for this refresh; ``fastpath`` toggles the
    evaluator's join fast paths. ``tracer`` (a
    :class:`~repro.obs.trace.Tracer`, or ``None``) records the refresh as a
    span tree: ``normalize_update``, then one ``maintain`` span per
    maintained warehouse relation wrapping its operator spans.
    """
    # Function-level: repro.compiler imports this module for the derivation.
    from repro.compiler.fuse import new_value_name
    from repro.compiler.runtime import RefreshCompiler

    options = dict(stats=stats, fastpath=fastpath, tracer=tracer, engine=engine)
    with span_of(
        tracer, "normalize_update", relations=sorted(update.relations())
    ) as span:
        effective = normalize_update(spec, warehouse, update, cache=cache, **options)
        span.set(
            effective_rows=sum(len(d.inserts) + len(d.deletes) for d in effective)
        )
    if effective.is_empty():
        return dict(warehouse), {}
    plan = RefreshCompiler.of(spec).program_for(
        frozenset(effective.relations()), side_mask(effective)
    )

    env: Dict[str, Relation] = dict(warehouse)
    env.update(delta_bindings(effective, spec.source_scope()))
    applied: Dict[str, Delta] = {}
    # Relations no program changes keep the identical object, so their
    # cached join buckets — and any EvaluationCache entries referencing
    # them — survive into the next refresh.
    new_state: Dict[str, Relation] = dict(warehouse)
    for program in plan.relations:
        name = program.name
        if program.kind != "pruned":
            # A dict memo is tied to one state: each program sees the
            # ``__new`` bindings of those before it, so it gets its own.
            memo = cache if cache is not None else {}
            with span_of(
                tracer, "maintain", relation=name, kind=program.kind
            ) as span:
                inserts = evaluate(program.inserts, env, cache=memo, **options)
                deletes = evaluate(program.deletes, env, cache=memo, **options)
                span.set(rows_inserted=len(inserts), rows_deleted=len(deletes))
            if inserts or deletes:
                new_state[name] = warehouse[name].difference(deletes).union(inserts)
                applied[name] = Delta(name, inserts=inserts, deletes=deletes)
        # A pruned relation the caller did not bind (a HybridWarehouse's
        # virtual complement it found no program reading) has no value.
        if name in new_state:
            env[new_value_name(name)] = new_state[name]
    return new_state, applied


def full_recompute_state(
    spec: WarehouseSpec,
    warehouse: State,
    update: Update,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    engine: Optional[str] = None,
) -> Dict[str, Relation]:
    """The baseline ``w' = W(u(W^{-1}(w)))``: reconstruct, update, recompute.

    Still update-independent (no source access) but recomputes every view
    from scratch; the benchmarks compare this against :func:`refresh_state`.
    """
    base = evaluate_all(
        spec.inverses, warehouse, stats=stats, fastpath=fastpath, engine=engine
    )
    for delta in update:
        if delta.relation not in base:
            raise WarehouseError(f"update touches unknown relation {delta.relation!r}")
        base[delta.relation] = delta.normalized(base[delta.relation]).apply_to(
            base[delta.relation]
        )
    return evaluate_all(
        spec.definitions_over_sources(), base, stats=stats, fastpath=fastpath,
        engine=engine,
    )
