"""The ``Warehouse`` runtime: Section 5's specification algorithm, live.

``Warehouse.specify`` performs the paper's Steps 1-3 at definition time:

1. compute a complement of the given PSJ views and the inverse mapping
   ``W^{-1}`` (Theorem 2.2, Equation (4));
2. query translation is then a substitution (Theorem 3.1) — available as
   :meth:`Warehouse.translate` / :meth:`Warehouse.answer`;
3. maintenance plans are derived per update shape and side mask and
   cached on the spec — :meth:`Warehouse.apply` folds reported source
   updates into the materialized state using warehouse data only
   (Theorem 4.1).

The warehouse user "does not need to be aware of complementary views or
query rewriting" (Section 5): queries are posed against base relation names
and updates arrive as plain :class:`~repro.storage.update.Update` objects.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Iterable, Mapping, Optional, Sequence, Union as TypingUnion

from repro.errors import WarehouseError
from repro.algebra.evaluator import EvalStats, EvaluationCache, evaluate, evaluate_all
from repro.algebra.deltas import ins_name
from repro.algebra.expressions import Expression, Join, Project, RelationRef
from repro.algebra.parser import parse
from repro.obs.explain import explain_refresh
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RingBufferCollector, Span, TraceCollector, Tracer, span_of
from repro.schema.catalog import Catalog
from repro.storage.database import Database
from repro.storage.engine import SANITIZER_ENV, sanitizer_enabled
from repro.storage.patch import PatchedImage
from repro.storage.relation import Relation
from repro.storage.update import Delta, Update
from repro.views.psj import View
from repro.core.complement import WarehouseSpec, specify
from repro.core.maintenance import (
    MaintenancePlan,
    State,
    delta_bindings,
    full_recompute_state,
    maintenance_expressions,
    side_mask,
)
from repro.core.translation import answer_query, translate_query, translation_read_set

QueryLike = TypingUnion[str, Expression]
StateLike = TypingUnion[Database, Mapping[str, Relation]]


class Warehouse:
    """A materialized, query- and update-independent warehouse.

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.views.psj import View
    >>> from repro.algebra.parser import parse
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Sale", ("item", "clerk"))
    >>> _ = catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    >>> wh = Warehouse.specify(catalog, [View("Sold", parse("Sale join Emp"))])
    >>> sorted(wh.spec.warehouse_names())
    ['C_Emp', 'C_Sale', 'Sold']
    """

    def __init__(
        self,
        spec: WarehouseSpec,
        engine: Optional[str] = None,
    ) -> None:
        from repro.storage.columnar import ENGINE_COLUMNAR, kernel_totals, resolve_engine
        from repro.compiler.runtime import RefreshCompiler

        self.spec = spec
        # Physical execution engine: "tuple" (frozenset operators) or
        # "columnar" (dictionary-coded batch kernels). ``None`` follows the
        # process default (REPRO_ENGINE), resolved once at construction.
        self.engine = resolve_engine(engine)
        self._columnar_engine = self.engine == ENGINE_COLUMNAR
        # The plan table — refresh plans per (update shape, side mask),
        # optimized Q ∘ W^{-1} per query: shared by every warehouse built
        # on this spec object.
        self._refresh_plans = RefreshCompiler.of(spec)
        # Baseline of the process-wide kernel counters, so per-refresh
        # deltas can be folded into evaluator.columnar.* metrics.
        self._kernel_baseline = kernel_totals() if self._columnar_engine else {}
        self._state: Optional[Dict[str, Relation]] = None
        # MVCC-style read handles: every commit *replaces* _state and bumps
        # _version, so a SnapshotView is just a pinned set of references.
        # _snapshot caches the view for the current version.
        self._version = 0
        self._snapshot = None
        self._aggregates: list = []
        # The cross-update evaluation cache: sub-expressions whose inputs an
        # update does not touch are reused across refreshes (and by
        # reconstruct_all between refreshes). answer() does not share it: its
        # entries are keyed by literal (EXPERIMENTS.md, E6b). Answers read
        # W^{-1}(w) from these images, patched per commit's effective update (E6c).
        self._cache = EvaluationCache()
        self._images: Dict[str, PatchedImage] = {}
        self._stats = EvalStats()
        self._last_refresh_stats = EvalStats()
        # Observability: metrics are always on (a handful of counter bumps
        # per refresh); tracing is opt-in via enable_tracing() and no span
        # is built while self._tracer is None.
        self._metrics = MetricsRegistry()
        self._tracer: Optional[Tracer] = None
        self._trace_buffer: Optional[RingBufferCollector] = None
        # Sanitizer mode (REPRO_CHECK_INVARIANTS=1): every apply() and
        # answer() is traced (with a private tracer if tracing is off) and
        # its runtime reads are cross-checked against the static read set —
        # Theorem 4.1's per refresh, Theorem 3.1's per query — and a thm22
        # warehouse refuses updates that break a declared key. Read once
        # here — never on the evaluator hot path (scripts/check_hotpath.py
        # rule R5).
        self._sanitize = sanitizer_enabled()

    # ------------------------------------------------------------------
    # Performance introspection
    # ------------------------------------------------------------------

    @property
    def eval_stats(self) -> EvalStats:
        """Cumulative :class:`EvalStats` across every apply/answer so far."""
        return self._stats

    @property
    def last_refresh_stats(self) -> EvalStats:
        """The :class:`EvalStats` of the most recent :meth:`apply` only."""
        return self._last_refresh_stats

    @property
    def evaluation_cache(self) -> EvaluationCache:
        """The persistent cross-update cache."""
        return self._cache

    # ------------------------------------------------------------------
    # Observability (docs/observability.md)
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """The warehouse's metric registry (catalog: docs/observability.md)."""
        return self._metrics

    @property
    def tracer(self) -> Optional[Tracer]:
        """The active tracer, or ``None`` while tracing is disabled."""
        return self._tracer

    def enable_tracing(
        self,
        capacity: int = 64,
        sink: Optional[TraceCollector] = None,
    ) -> Tracer:
        """Turn on refresh tracing; returns the :class:`Tracer`.

        Traces are kept in an in-memory ring buffer of the last
        ``capacity`` refreshes (read by :meth:`explain` /
        :meth:`last_trace`). Pass ``sink`` (e.g. a
        :class:`~repro.obs.trace.JsonlSink`) to additionally stream every
        span to a file; the caller owns closing such a sink. Idempotent in
        effect: calling again replaces the tracer and buffer.
        """
        self._trace_buffer = RingBufferCollector(capacity)
        collectors = [self._trace_buffer]
        if sink is not None:
            collectors.append(sink)
        self._tracer = Tracer(collectors)
        return self._tracer

    def disable_tracing(self) -> None:
        """Turn tracing back off (buffered traces are dropped)."""
        self._tracer = None
        self._trace_buffer = None

    def last_trace(self, name: Optional[str] = None) -> Optional[Span]:
        """The newest buffered trace root (optionally filtered by name)."""
        if self._trace_buffer is None:
            return None
        return self._trace_buffer.last(name)

    def explain(
        self, max_depth: Optional[int] = None, name: Optional[str] = None
    ) -> str:
        """The newest trace as an annotated operator tree.

        Shows per-operator wall time, rows in/out, cross-update cache
        hits, index hits, and — starred — where the semi-join/anti-join
        fast paths fired. By default explains the newest trace of any
        kind (the last :meth:`apply`'s ``refresh``, or ``initialize``
        right after initialization — where the Prop 2.2 complement shape
        fires the anti-join rewrite); pass ``name="refresh"`` or
        ``name="initialize"`` to pick one. Requires tracing
        (:meth:`enable_tracing`) before the operation to explain.
        """
        if self._tracer is None:
            raise WarehouseError(
                "tracing is disabled; call enable_tracing() before apply()"
            )
        root = self.last_trace(name)
        if root is None:
            wanted = f"{name} trace" if name else "traced operation"
            raise WarehouseError(
                f"no {wanted} buffered yet; run initialize()/apply() with "
                "tracing enabled first"
            )
        return explain_refresh(root, max_depth=max_depth)

    def _tracer_for(self) -> Optional[Tracer]:
        """The tracer to run one operation under: the live one — or, when
        the sanitizer needs the operation's span tree (to check runtime
        reads against the static read set) and tracing is off, a private
        tracer that delivers to no collector."""
        return Tracer() if self._sanitize and self._tracer is None else self._tracer

    def _record_refresh_metrics(
        self, elapsed: float, mode: str, applied: Dict[str, Delta], stats: EvalStats
    ) -> None:
        metrics = self._metrics
        metrics.counter("warehouse.refreshes").inc()
        metrics.histogram("warehouse.refresh_seconds").observe(elapsed)
        metrics.histogram(f"warehouse.refresh_seconds.{mode}").observe(elapsed)
        metrics.counter("warehouse.relations_touched").inc(len(applied))
        if not applied:
            metrics.counter("warehouse.refreshes_noop").inc()
        inserted = sum(len(d.inserts) for d in applied.values())
        deleted = sum(len(d.deletes) for d in applied.values())
        if inserted:
            metrics.counter("warehouse.rows_inserted").inc(inserted)
        if deleted:
            metrics.counter("warehouse.rows_deleted").inc(deleted)
        metrics.merge_eval_stats(stats)
        if self._columnar_engine:
            self._record_kernel_metrics()

    def _record_kernel_metrics(self) -> None:
        """Fold kernel-counter deltas into ``evaluator.columnar.*``."""
        from repro.storage.columnar import dictionary_size, kernel_totals

        metrics = self._metrics
        totals = kernel_totals()
        baseline = self._kernel_baseline
        for kernel, count in totals.items():
            delta = count - baseline.get(kernel, 0)
            if delta:
                metrics.counter(f"evaluator.columnar.{kernel}").inc(delta)
        self._kernel_baseline = totals
        metrics.gauge("evaluator.columnar.dictionary_size").set(dictionary_size())

    def _update_storage_gauges(self) -> None:
        metrics = self._metrics
        complement_names = {c.name for c in self.spec.complements.values()}
        total = view_rows = complement_rows = 0
        for name, relation in self._state.items():
            rows = len(relation)
            total += rows
            if name in complement_names:
                complement_rows += rows
                metrics.gauge(f"warehouse.complement_rows.{name}").set(rows)
            else:
                view_rows += rows
        metrics.gauge("warehouse.rows").set(total)
        metrics.gauge("warehouse.view_rows").set(view_rows)
        metrics.gauge("warehouse.complement_rows").set(complement_rows)
        metrics.histogram("warehouse.complement_rows_per_refresh").observe(
            complement_rows
        )
        metrics.gauge("warehouse.cache_entries").set(len(self._cache))

    # ------------------------------------------------------------------
    # Construction (Section 5, Step 1)
    # ------------------------------------------------------------------

    @classmethod
    def specify(
        cls,
        catalog: Catalog,
        views: Sequence[View],
        method: str = "thm22",
        engine: Optional[str] = None,
        compile_plans: Optional[bool] = None,
        **options,
    ) -> "Warehouse":
        """Build a warehouse from a catalog and PSJ view definitions.

        ``engine`` configures the constructed warehouse (see
        :meth:`__init__`); all other keyword ``options`` go to the
        specification builder.
        """
        # compile_plans selects nothing: there is one refresh path. It is
        # still accepted because benchmarks/suite/workloads.py:551 (the
        # frozen suite's ``variant.compiled`` row) passes it; the next
        # benchmark PR drops that row and this parameter together.
        return cls(
            specify(catalog, views, method=method, **options), engine=engine
        )

    # ------------------------------------------------------------------
    # Static validation (repro.analysis)
    # ------------------------------------------------------------------

    def validate(self, strict: bool = False, deep: bool = False) -> list:
        """Statically check the specification; raise on defects.

        Runs the :mod:`repro.analysis` lint pass over the spec and raises
        :class:`~repro.errors.WarehouseError` listing every diagnostic at
        or above the gate — ``ERROR`` by default, ``WARNING`` too with
        ``strict=True``. Returns the full diagnostic list (including
        findings below the gate) for inspection. ``deep=True`` adds the
        containment- and emptiness-based checks (W0041/W0042/W0052),
        which cost about as much as ``specify`` itself.

        :meth:`initialize` calls this (non-strict, shallow) before
        materializing, so misconfigured warehouses fail at deploy time
        with structured diagnostics instead of raising mid-evaluation.
        """
        from repro.analysis.diagnostics import Severity
        from repro.analysis.lint import lint_spec

        diagnostics = lint_spec(self.spec, deep=deep)
        gate = Severity.WARNING if strict else Severity.ERROR
        failing = [d for d in diagnostics if d.severity >= gate]
        if failing:
            rendered = "\n".join(d.render() for d in failing)
            raise WarehouseError(
                f"invalid warehouse specification "
                f"({len(failing)} finding(s)):\n{rendered}"
            )
        return diagnostics

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------

    def initialize(self, source: StateLike) -> Dict[str, Relation]:
        """Materialize the warehouse from an initial source snapshot.

        This is the only moment source data is read (the initial extract);
        afterwards the warehouse lives off reported updates alone. The
        spec is statically validated first (:meth:`validate`) so schema
        defects surface as structured diagnostics, not evaluation errors.
        """
        self.validate()
        state = source.state() if isinstance(source, Database) else dict(source)
        started = perf_counter()
        with span_of(self._tracer, "initialize"):
            materialized = evaluate_all(
                self.spec.definitions_over_sources(), state,
                tracer=self._tracer, engine=self.engine,
            )
        self._metrics.histogram("warehouse.initialize_seconds").observe(
            perf_counter() - started
        )
        self._commit(materialized)
        return dict(self.state)

    def _commit(
        self,
        new_state: Dict[str, Relation],
        applied: Optional[Dict[str, Delta]] = None,
        effective: Iterable[Delta] = (),
    ) -> None:
        """Publish ``new_state`` as the next version — the one commit site.

        ``applied`` is an incremental refresh's per-relation deltas, which
        attached aggregates fold in, and ``effective`` its effective update,
        which the inverse images record; ``None`` (:meth:`initialize`,
        :meth:`apply_full`) recomputes the aggregates and drops the images.
        """
        self._state = self._kept(new_state)
        self._version += 1
        self._snapshot = None
        self._update_storage_gauges()
        if applied is None:
            self._images.clear()
        for delta in effective:
            held = self._images.get(delta.relation)
            if held is not None and not held.record(delta.deletes, delta.inserts):
                del self._images[delta.relation]
        for aggregate in self._aggregates:
            source = new_state[aggregate.source]
            if applied is None:
                aggregate.recompute(source)
            elif aggregate.source in applied:
                aggregate.apply_delta(applied[aggregate.source], source)

    # The state hooks: everything a HybridWarehouse (Section 6) changes.

    def _state_for(self, *expressions: Expression) -> State:
        """The state to evaluate ``expressions`` (plans, inverses) over."""
        return self.state

    def _refresh_over(self, update: Update) -> State:
        """The state to refresh ``update`` over."""
        return self.state

    def _kept(self, by_name: dict) -> dict:
        """The entries of ``by_name`` whose relation is materialized here."""
        return by_name

    @property
    def state(self) -> Dict[str, Relation]:
        """The materialized warehouse state (views plus stored complements)."""
        if self._state is None:
            raise WarehouseError("warehouse not initialized; call initialize() first")
        return self._state

    @property
    def version(self) -> int:
        """The commit version: bumped by every initialize()/apply()/apply_full()."""
        return self._version

    def snapshot(self):
        """A :class:`~repro.storage.snapshot.SnapshotView` of the current state.

        Refreshes replace the state mapping rather than mutating it, so the
        returned view stays a consistent image of this exact version while
        any number of later :meth:`apply` calls land — the MVCC read path.
        The view is cached per version, so repeated calls between refreshes
        are O(1).
        """
        from repro.storage.snapshot import SnapshotView

        snapshot = self._snapshot
        if snapshot is None or snapshot.version != self._version:
            snapshot = SnapshotView(self.state, self._version)
            self._snapshot = snapshot
        return snapshot

    def relation(self, name: str) -> Relation:
        """One materialized warehouse relation by name."""
        state = self.state
        if name not in state:
            raise WarehouseError(f"no warehouse relation named {name!r}")
        return state[name]

    def storage_rows(self) -> int:
        """Total number of materialized tuples (views + complements)."""
        return sum(len(rel) for rel in self.state.values())

    def storage_by_relation(self) -> Dict[str, int]:
        """Tuple counts per materialized warehouse relation."""
        return {name: len(rel) for name, rel in self.state.items()}

    # ------------------------------------------------------------------
    # Query independence (Section 3)
    # ------------------------------------------------------------------

    def translate(self, query: QueryLike) -> Expression:
        """Translate a source query to a warehouse query (``Q^``)."""
        return translate_query(self.spec, self._as_expression(query))

    @property
    def translation_cache(self):
        """The spec's plan table, read from the query side.

        ``hits`` / ``misses`` / ``len()`` count optimized ``Q ∘ W^{-1}``
        plans (:meth:`~repro.compiler.runtime.RefreshCompiler.query_plan`);
        every warehouse on this spec object shares them.
        """
        return self._refresh_plans

    def answer(self, query: QueryLike) -> Relation:
        """Answer a source query from warehouse relations only.

        The plan is derived once per spec and query (the spec's plan
        table), and reads each base relation's held image; under
        ``REPRO_CHECK_INVARIANTS=1`` the evaluation is traced (with a
        private tracer if tracing is off), its runtime reads are
        cross-checked against the translation's static read set, and each
        image read against its inverse.
        """
        return self._answer(query, self._answer_state)

    def _answer(self, query: QueryLike, state) -> Relation:
        """:meth:`answer` over ``state``: the one method around
        :func:`~repro.core.translation.answer_query`, which a
        :class:`~repro.core.sharding.ShardedWarehouse` runs over its
        assembled snapshot."""
        self._metrics.counter("warehouse.queries").inc()
        expression = self._as_expression(query)
        tracer = self._tracer_for()
        result = answer_query(
            self.spec, state, expression, tracer=tracer, engine=self.engine
        )
        if self._sanitize:
            from repro.analysis.dataflow import check_reads

            # The static read set is recomputed from the spec, not taken
            # from the plan table — a corrupted plan must not self-certify.
            # A read of base relation R is a read of its image, W^{-1}(R).
            static = set(translation_read_set(self.spec, expression))
            static |= {name for name, inverse in self.spec.inverses.items()
                       if inverse.relation_names() <= static}
            check_reads(self.spec, static, tracer.last_root, "query")
        return result

    def _answer_state(self, plan: Expression) -> State:
        """The warehouse relations, and ``plan``'s base relations' images."""
        names = plan.relation_names() & self.spec.inverses.keys()
        return {**self.state, **{name: self._image(name) for name in names}}

    def _image(self, name: str) -> Relation:
        """``W^{-1}(w)`` for base relation ``name``: the stored relation of a
        bare inverse, else the held image, built when none is held."""
        inverse = self.spec.inverses[name]
        if isinstance(inverse, RelationRef):
            return self.state[inverse.name]
        held = self._images.get(name)
        if held is None:
            image, how = evaluate(inverse, self.state, engine=self.engine), "full"
            self._images[name] = PatchedImage(image)
        else:
            image, patched = held.read()
            how = "patched" if patched else None
        if how:
            self._metrics.counter(f"warehouse.inverse_images.{how}").inc()
            self._metrics.gauge("warehouse.inverse_image_rows").set(
                sum(len(held.image) for held in self._images.values()))
        if self._sanitize and image != evaluate(inverse, self.state, engine=self.engine):
            raise WarehouseError(f"image sanitizer ({SANITIZER_ENV}=1): the held "
                                 f"image of {name} differs from its inverse")
        return image

    def reconstruct(self, relation: str) -> Relation:
        """One base relation via Equation (4): its inverse image."""
        self._metrics.counter("warehouse.reconstructions").inc()
        self.spec.inverse_for(relation)
        return self._answer_state(RelationRef(relation))[relation]

    def reconstruct_all(self) -> Dict[str, Relation]:
        """Recompute every base relation (the full ``W^{-1}``)."""
        inverses = self.spec.inverses
        return evaluate_all(
            inverses, self._state_for(*inverses.values()), cache=self._cache,
            engine=self.engine,
        )

    def audit(self) -> list:
        """Self-check: do the reconstructed base relations satisfy ``D``?

        Because the warehouse state determines the base state (Proposition
        2.1), every declared constraint is checkable *locally*. A non-empty
        result means either the sources violated their own constraints or a
        reported update was lost/corrupted in transit — exactly the failure
        a decoupled pipeline wants to detect early. Returns human-readable
        violation descriptions (empty list = consistent).
        """
        rebuilt = Database(self.spec.catalog, self.reconstruct_all(), check=False)
        return rebuilt.constraint_violations()

    # ------------------------------------------------------------------
    # Update independence (Section 4)
    # ------------------------------------------------------------------

    def maintenance_plan(
        self, updated: Iterable[str], **options
    ) -> MaintenancePlan:
        """The unfused symbolic maintenance plan for an update shape.

        Derived on each call, for inspection: :meth:`apply` runs the fused
        plans of the spec's plan table instead.
        """
        return maintenance_expressions(self.spec, updated, **options)

    def apply(self, update: Update) -> Dict[str, Delta]:
        """Incrementally fold a reported source update into the warehouse.

        Returns the effective per-warehouse-relation deltas. Touches no
        source database. The refresh interprets the fused plan of this
        update's shape and side mask (derived once per spec); through the
        persistent cache, sub-expressions over relations this
        update leaves unchanged are reused from earlier refreshes;
        per-refresh counters land in :attr:`last_refresh_stats`. Under
        ``REPRO_CHECK_INVARIANTS=1`` the refresh's reads are checked
        against the static read set, and a ``thm22`` warehouse raises
        before committing an update that breaks a declared key.
        """
        plans = self._refresh_plans
        compiles, plan_hits = plans.compiles, plans.plan_hits
        working = self._refresh_over(update)
        if self._sanitize and self.spec.method == "thm22":
            self._check_keys(working, update)
        stats = EvalStats()
        mode = side_mask(update)
        started = perf_counter()
        tracer = self._tracer_for()
        with span_of(
            tracer, "refresh", relations=sorted(update.relations()), mode=mode
        ) as root:
            new_state, applied, effective = plans.refresh(
                working, update, cache=self._cache, stats=stats,
                tracer=tracer, engine=self.engine,
            )
            root.set(relations_touched=len(applied))
        if self._sanitize:
            from repro.analysis.dataflow import check_refresh_reads

            check_refresh_reads(self.spec, update.relations(), root)
        self._last_refresh_stats = stats
        self._stats.merge(stats)
        applied = self._kept(applied)
        elapsed = perf_counter() - started
        self._commit(new_state, applied, effective)
        self._record_refresh_metrics(elapsed, mode, applied, stats)
        # The plan table is shared by every warehouse on this spec; count
        # only what this refresh derived or found.
        metrics = self._metrics
        metrics.counter("compiler.compiles").inc(plans.compiles - compiles)
        metrics.counter("compiler.plan_cache_hits").inc(plans.plan_hits - plan_hits)
        metrics.gauge("compiler.plans").set(plans.plan_count)
        return applied

    def _check_keys(self, state: State, update: Update) -> None:
        """The key sanitizer: refuse an update that breaks a declared key.

        A ``thm22`` spec's refresh plans are exact only on sources that
        satisfy the declared keys (the keyed projection rule of
        :mod:`repro.algebra.deltas`). Only rows sharing a key value with an
        inserted row can newly collide, so each updated relation's inverse
        is evaluated joined with ``pi_K(R__ins)`` over ``state`` and the
        update's delta bindings — O(delta) through the evaluator's
        delta-driven restriction — and the update applied to that slice; a
        key it violates raises before anything is committed. A violation
        involving no inserted key value cannot come from this update, and
        only :meth:`audit` reports it.
        """
        catalog = self.spec.catalog
        for delta in update:
            schema = catalog.get(delta.relation)
            if schema is None or schema.key is None or not delta.inserts:
                continue
            scope = self.spec.source_scope()
            env = {**state, **delta_bindings(Update.of(delta), scope)}
            inserted = Project(RelationRef(ins_name(delta.relation)), schema.key)
            current = evaluate(
                Join(self.spec.inverses[delta.relation], inserted), env,
                cache=self._cache, engine=self.engine,
            )
            after = delta.apply_to(current)
            if len(after.project(schema.key)) != len(after):
                first, second = after.key_violations(schema.key)[0]
                raise WarehouseError(
                    f"key sanitizer: the update to {delta.relation} breaks its "
                    f"key {schema.key}: {first!r} and {second!r}"
                )

    def apply_batch(self, updates: Iterable[Update]) -> Dict[str, Delta]:
        """Fold a batch of reported updates in with a single refresh.

        The updates are composed sequentially (:meth:`Update.compose`) and
        the net update is applied once: one normalization, one maintenance
        evaluation, one cache-invalidation pass — instead of one per
        notification. Equivalent to applying them in order.
        """
        batch: Optional[Update] = None
        composed = 0
        for update in updates:
            batch = update if batch is None else batch.compose(update)
            composed += 1
        if batch is None:
            # Nothing to fold: don't pollute warehouse.batch_size with zeros.
            return {}
        self._metrics.histogram("warehouse.batch_size").observe(composed)
        return self.apply(batch)

    def apply_full(self, update: Update) -> None:
        """Baseline: ``w' = W(u(W^{-1}(w)))`` — full recomputation."""
        self._commit(
            full_recompute_state(self.spec, self.state, update, engine=self.engine)
        )

    def attach_aggregate(self, aggregate) -> None:
        """Attach a materialized aggregate view (Section 5, last paragraph).

        The aggregate rides on one warehouse relation (typically a fact
        table): every :meth:`apply` forwards that relation's effective delta
        to the aggregate's summary-delta maintenance. If the warehouse is
        already initialized the aggregate is computed immediately.
        """
        if aggregate.source not in self.spec.warehouse_names():
            raise WarehouseError(
                f"aggregate source {aggregate.source!r} is not a warehouse relation"
            )
        self._aggregates.append(aggregate)
        if self._state is not None:
            aggregate.recompute(self._state[aggregate.source])

    def aggregate(self, name: str) -> Relation:
        """The current table of an attached aggregate view, by name."""
        for aggregate in self._aggregates:
            if aggregate.name == name:
                return aggregate.table()
        raise WarehouseError(f"no aggregate view named {name!r}")

    def insert(self, relation: str, rows: Iterable[Sequence[object]]) -> Dict[str, Delta]:
        """Convenience: apply an insertion update."""
        attrs = self.spec.catalog[relation].attributes
        return self.apply(Update.insert(relation, attrs, rows))

    def delete(self, relation: str, rows: Iterable[Sequence[object]]) -> Dict[str, Delta]:
        """Convenience: apply a deletion update."""
        attrs = self.spec.catalog[relation].attributes
        return self.apply(Update.delete(relation, attrs, rows))

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _as_expression(self, query: QueryLike) -> Expression:
        if isinstance(query, str):
            return parse(query)
        return query

    def describe(self) -> str:
        """The full specification, human-readable."""
        return self.spec.describe()

    def __repr__(self) -> str:
        status = "uninitialized" if self._state is None else f"{self.storage_rows()} rows"
        return f"Warehouse({len(self.spec.views)} views, {self.spec.method}, {status})"
