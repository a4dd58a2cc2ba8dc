"""Sharded warehouses: key-range partitioned fact relations, MVCC commits.

A :class:`ShardedWarehouse` scales the Figure 1 warehouse horizontally: one
or more *fact* relations are partitioned by a routing attribute (key-range
or hashed — :class:`ShardRouting`), every shard runs a complete
:class:`~repro.core.warehouse.Warehouse` over the same specification, and a
:class:`ShardRouter` splits each reported update into per-shard parts —
routed deltas go to the shard owning their key range, every other delta is
broadcast to all shards.

Why this is *correct* is the paper's own argument, applied per shard: a
shard's warehouse tracks the source state restricted to (its slice of the
routed relations) ∪ (the unrouted relations in full). Key and inclusion
constraints survive restriction to a slice, so Theorem 2.2's complement and
Theorem 4.1's source-free maintenance hold shard-locally. Construction then
classifies every warehouse relation by how its global image assembles from
the shard images — the classification is the static shard-independence
prover's (:func:`repro.analysis.concurrency.classify_assembly`, surfaced as
``python -m repro prove-sharding``): definitions *rooted* in the routing
attribute satisfy ``V(∪ᵢRᵢ, S) = ∪ᵢV(Rᵢ, S)`` (select/project/join
distribute over union, and rooted tuples from different slices never meet),
while the ``K − π(…R…)`` complement shape of the relations joined against a
routed one flips to intersection: ``K − ∪ᵢBᵢ = ∩ᵢ(K − Bᵢ)``. Everything
independent of routed facts is simply replicated. Views combining *two*
routed relations are admitted when they join on the routing attributes and
the routings are **co-partitioned** (equal values land on the same shard —
:meth:`repro.core.routing.ShardRouting.compatible_with`); anything else
raises at construction with the prover's reasoned refusal.

Under ``REPRO_CHECK_RACES=1`` (sibling of ``REPRO_CHECK_INVARIANTS``) a
:class:`repro.analysis.races.RaceTracker` cross-checks the refresh
protocol at runtime: shard locks acquired in ascending order, no
overlapping uncommitted refreshes on a shard, and every refresh's writes
inside the statically derived footprint
(:func:`repro.analysis.concurrency.write_footprint`).

Commits are MVCC-style: each shard refresh swaps that shard's immutable
state mapping, and :meth:`ShardedWarehouse.commit` publishes the batch by
capturing the touched shards' state references in one synchronous block —
readers resolving :meth:`ShardedWarehouse.snapshot` therefore never observe
a half-applied batch, and a reader holding a snapshot keeps a consistent
image while any number of later commits land (see
:mod:`repro.storage.snapshot`). Every commit is appended to
:attr:`ShardedWarehouse.commit_log`, which is the replay script the
concurrency correctness harness feeds back through a synchronous reference
integrator (``tests/integrator/test_async_integrator.py``).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import WarehouseError
from repro.obs.metrics import MetricsRegistry
from repro.schema.catalog import Catalog
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.storage.update import Delta, Update
from repro.views.psj import View
from repro.analysis.concurrency import (
    ASSEMBLE_INTERSECT,
    ASSEMBLE_REPLICATED,
    ASSEMBLE_UNION,
    AssemblyReport,
    classify_assembly,
    write_footprint,
)
from repro.analysis.races import RaceTracker, races_enabled
from repro.core.complement import WarehouseSpec, specify
from repro.core.routing import ShardRouting, _stable_hash  # noqa: F401 — re-export
from repro.core.warehouse import StateLike, Warehouse

__all__ = [
    "ShardRouting",
    "ShardRouter",
    "ShardedSnapshot",
    "ShardedWarehouse",
    "CommitRecord",
    "ASSEMBLE_REPLICATED",
    "ASSEMBLE_UNION",
    "ASSEMBLE_INTERSECT",
]


class ShardRouter:
    """Routes updates and initial states to shards.

    Routed relations split row-by-row on their routing attribute; every
    other relation is *broadcast* — each shard keeps a full replica (the
    classic partitioned-facts / replicated-dimensions layout).

    Examples
    --------
    >>> router = ShardRouter([ShardRouting("Sale", "item", shards=2)])
    >>> router.shards, router.is_routed("Sale"), router.is_routed("Emp")
    (2, True, False)
    """

    def __init__(
        self,
        routings: Sequence[ShardRouting] = (),
        shards: Optional[int] = None,
    ) -> None:
        self._routings: Dict[str, ShardRouting] = {}
        for routing in routings:
            if routing.relation in self._routings:
                raise WarehouseError(
                    f"relation {routing.relation!r} routed more than once"
                )
            self._routings[routing.relation] = routing
        counts = {r.shards for r in self._routings.values()}
        if shards is not None:
            counts.add(shards)
        if not counts:
            raise WarehouseError(
                "router needs at least one routing or an explicit shards="
            )
        if len(counts) != 1:
            raise WarehouseError(
                f"inconsistent shard counts across routings: {sorted(counts)}"
            )
        self.shards = counts.pop()

    @property
    def routed_relations(self) -> Tuple[str, ...]:
        """The partitioned relation names, sorted."""
        return tuple(sorted(self._routings))

    def is_routed(self, relation: str) -> bool:
        """Whether ``relation`` is partitioned (else it is broadcast)."""
        return relation in self._routings

    def routing_for(self, relation: str) -> ShardRouting:
        """The :class:`ShardRouting` of a partitioned relation."""
        try:
            return self._routings[relation]
        except KeyError:
            raise WarehouseError(f"relation {relation!r} is not routed") from None

    def shard_of_row(
        self, relation: str, attributes: Sequence[str], row: Sequence[object]
    ) -> int:
        """The shard owning one row of a routed relation."""
        routing = self.routing_for(relation)
        try:
            position = list(attributes).index(routing.attribute)
        except ValueError:
            raise WarehouseError(
                f"routing attribute {routing.attribute!r} missing from "
                f"{relation!r} schema {tuple(attributes)}"
            ) from None
        return routing.shard_of(row[position])

    def split_relation(self, name: str, relation: Relation) -> List[Relation]:
        """Partition a routed relation instance into per-shard slices."""
        routing = self.routing_for(name)
        try:
            position = relation.attributes.index(routing.attribute)
        except ValueError:
            raise WarehouseError(
                f"routing attribute {routing.attribute!r} missing from "
                f"{name!r} schema {relation.attributes}"
            ) from None
        buckets: List[List[tuple]] = [[] for _ in range(self.shards)]
        for row in relation.rows:
            buckets[routing.shard_of(row[position])].append(row)
        return [Relation(relation.attributes, rows) for rows in buckets]

    def split_update(self, update: Update) -> Dict[int, Update]:
        """Split an update into non-empty per-shard updates.

        Routed deltas are partitioned row-by-row; unrouted deltas are
        broadcast into every shard's part. Shards left with nothing to do
        are absent from the result.
        """
        parts: Dict[int, List[Delta]] = {i: [] for i in range(self.shards)}
        for delta in update:
            if self.is_routed(delta.relation):
                inserts = self.split_relation(delta.relation, delta.inserts)
                deletes = self.split_relation(delta.relation, delta.deletes)
                for i in range(self.shards):
                    if inserts[i] or deletes[i]:
                        parts[i].append(
                            Delta(delta.relation, inserts[i], deletes[i])
                        )
            else:
                for i in range(self.shards):
                    parts[i].append(delta)
        return {
            i: Update(deltas) for i, deltas in parts.items() if deltas
        }

    def split_state(
        self, state: Mapping[str, Relation]
    ) -> List[Dict[str, Relation]]:
        """Per-shard initial states: routed relations sliced, rest shared."""
        shards: List[Dict[str, Relation]] = [dict() for _ in range(self.shards)]
        for name, relation in state.items():
            if self.is_routed(name):
                for i, part in enumerate(self.split_relation(name, relation)):
                    shards[i][name] = part
            else:
                for part_state in shards:
                    part_state[name] = relation
        return shards

    def __repr__(self) -> str:
        return (
            f"ShardRouter({self.shards} shards, "
            f"routed={list(self.routed_relations)})"
        )


class CommitRecord(NamedTuple):
    """One published batch: global version, net update, shards touched."""

    version: int
    update: Update
    shards: Tuple[int, ...]


def _union_all(relations: Sequence[Relation]) -> Relation:
    combined = relations[0]
    for relation in relations[1:]:
        combined = combined.union(relation)
    return combined


def _intersect_all(relations: Sequence[Relation]) -> Relation:
    combined = relations[0]
    for relation in relations[1:]:
        combined = combined.intersection(relation)
    return combined


class ShardedSnapshot:
    """A consistent cross-shard read view at one commit version.

    Holds the per-shard state mappings captured at commit time, plus each
    warehouse relation's *assembly mode* — how its global image is built
    from the shard images. Union-assembled relations (definitions rooted in
    a routed base) union their shard images; intersection-assembled ones
    (the ``K − π(…routed…)`` complement shape) intersect them; replicated
    relations read from shard 0. Assembly is lazy and memoized per
    snapshot. The read API mirrors
    :class:`~repro.storage.snapshot.SnapshotView`.
    """

    __slots__ = ("_version", "_states", "_assembly", "_memo")

    def __init__(
        self,
        version: int,
        states: Sequence[Mapping[str, Relation]],
        assembly: Mapping[str, str],
    ) -> None:
        self._version = version
        self._states: Tuple[Mapping[str, Relation], ...] = tuple(states)
        self._assembly = assembly
        self._memo: Dict[str, Relation] = {}

    @property
    def version(self) -> int:
        """The commit version this snapshot pins."""
        return self._version

    def names(self) -> Tuple[str, ...]:
        """The warehouse relation names visible in this snapshot, sorted."""
        return tuple(sorted(self._states[0]))

    def relation(self, name: str) -> Relation:
        """The assembled global image of one warehouse relation."""
        cached = self._memo.get(name)
        if cached is not None:
            return cached
        if name not in self._states[0]:
            raise WarehouseError(
                f"snapshot (version {self._version}) has no relation {name!r}"
            )
        mode = self._assembly.get(name, ASSEMBLE_REPLICATED)
        if mode == ASSEMBLE_REPLICATED or len(self._states) == 1:
            assembled = self._states[0][name]
        elif mode == ASSEMBLE_UNION:
            assembled = _union_all([state[name] for state in self._states])
        else:
            assembled = _intersect_all([state[name] for state in self._states])
        self._memo[name] = assembled
        return assembled

    def shard_relation(self, shard: int, name: str) -> Relation:
        """One shard's pinned image of a warehouse relation."""
        try:
            return self._states[shard][name]
        except (IndexError, KeyError):
            raise WarehouseError(
                f"snapshot (version {self._version}): no relation "
                f"{name!r} on shard {shard}"
            ) from None

    def state(self) -> Dict[str, Relation]:
        """The fully assembled ``{name: Relation}`` global state."""
        return {name: self.relation(name) for name in self.names()}

    def total_rows(self) -> int:
        """Total tuples in the assembled global image."""
        return sum(len(self.relation(name)) for name in self.names())

    def __contains__(self, name: str) -> bool:
        return name in self._states[0]

    def __iter__(self) -> Iterator[str]:
        return iter(self._states[0])

    def __len__(self) -> int:
        return len(self._states[0])

    def __repr__(self) -> str:
        return (
            f"ShardedSnapshot(version={self._version}, "
            f"{len(self._states)} shards, {len(self._states[0])} relations)"
        )


class ShardedWarehouse:
    """N complete warehouses over one spec, facts partitioned by key range.

    All shards share the same :class:`~repro.core.complement.WarehouseSpec`
    (complements and maintenance plans are state-independent); each holds
    the materialized state for its slice. Reads go through MVCC snapshots
    (:meth:`snapshot`); writes split per shard (:meth:`split`), refresh
    shard-locally (:meth:`apply_to_shard`) and publish atomically
    (:meth:`commit`) — :meth:`apply` bundles the three for synchronous use,
    while the async integrator drives them directly so refreshes on
    disjoint shards can interleave.

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.views.psj import View
    >>> from repro.algebra.parser import parse
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Sale", ("item", "clerk"))
    >>> _ = catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    >>> wh = ShardedWarehouse.specify(
    ...     catalog, [View("Sold", parse("Sale join Emp"))],
    ...     routings=[ShardRouting("Sale", "item", shards=2)],
    ... )
    >>> _ = wh.initialize({
    ...     "Sale": Relation(("item", "clerk"), [("TV", "Mary")]),
    ...     "Emp": Relation(("clerk", "age"), [("Mary", 23)]),
    ... })
    >>> wh.relation("Sold").rows
    frozenset({('TV', 'Mary', 23)})
    """

    def __init__(
        self,
        spec: WarehouseSpec,
        router: Optional[ShardRouter] = None,
        shards: Optional[int] = None,
        cached: bool = True,
        engine: Optional[str] = None,
    ) -> None:
        if router is None:
            router = ShardRouter((), shards=shards if shards is not None else 1)
        elif shards is not None and shards != router.shards:
            raise WarehouseError(
                f"shards={shards} disagrees with router ({router.shards} shards)"
            )
        self.spec = spec
        self.router = router
        # Per warehouse relation: how its global image assembles from the
        # shard images (replicated / union / intersect). Relations whose
        # definitions never read a routed base stay replicated — broadcast
        # updates keep all their replicas identical.
        self._report: AssemblyReport = self._validate_routings()
        self._assembly: Dict[str, str] = dict(self._report.assembly)
        self._race_tracker: Optional[RaceTracker] = (
            RaceTracker(router.shards) if races_enabled() else None
        )
        self._footprints: Dict[FrozenSet[str], FrozenSet[str]] = {}
        self.shards: Tuple[Warehouse, ...] = tuple(
            Warehouse(spec, cached=cached, engine=engine)
            for _ in range(router.shards)
        )
        self._committed: List[Optional[Dict[str, Relation]]] = [
            None for _ in range(router.shards)
        ]
        self._version = 0
        self._snapshot: Optional[ShardedSnapshot] = None
        self._commit_log: List[CommitRecord] = []
        self._metrics = MetricsRegistry()
        self._metrics.gauge("warehouse.shards").set(router.shards)

    def _validate_routings(self) -> AssemblyReport:
        """Check shardability and classify each warehouse relation's assembly.

        Delegates to the static shard-independence prover
        (:func:`repro.analysis.concurrency.classify_assembly`): the same
        walk that decides ``python -m repro prove-sharding`` verdicts also
        gates construction, so a layout that builds is exactly a layout
        the prover admits — including views over two routed relations
        joined on co-partitioned routing attributes.
        """
        catalog = self.spec.catalog
        routings: Dict[str, ShardRouting] = {}
        for name in self.router.routed_relations:
            routing = self.router.routing_for(name)
            if name not in catalog:
                raise WarehouseError(f"routed relation {name!r} not in catalog")
            if routing.attribute not in catalog[name].attributes:
                raise WarehouseError(
                    f"routing attribute {routing.attribute!r} is not an "
                    f"attribute of {name!r}"
                )
            routings[name] = routing
        return classify_assembly(
            self.spec.definitions_over_sources(),
            self.spec.source_scope(),
            routings,
        )

    @classmethod
    def specify(
        cls,
        catalog: Catalog,
        views: Sequence[View],
        routings: Sequence[ShardRouting] = (),
        shards: Optional[int] = None,
        method: str = "thm22",
        cached: bool = True,
        engine: Optional[str] = None,
        **options,
    ) -> "ShardedWarehouse":
        """Build a sharded warehouse from a catalog and PSJ views."""
        router = (
            ShardRouter(routings)
            if routings
            else ShardRouter((), shards=shards if shards is not None else 1)
        )
        return cls(
            specify(catalog, views, method=method, **options),
            router=router,
            shards=shards,
            cached=cached,
            engine=engine,
        )

    # ------------------------------------------------------------------
    # State and MVCC reads
    # ------------------------------------------------------------------

    def initialize(self, source: StateLike) -> None:
        """Materialize every shard from an initial source snapshot."""
        state = source.state() if isinstance(source, Database) else dict(source)
        for shard, part in zip(self.shards, self.router.split_state(state)):
            shard.initialize(part)
        self.commit(range(self.router.shards))

    @property
    def version(self) -> int:
        """The global commit version (bumped once per published batch)."""
        return self._version

    @property
    def commit_log(self) -> Tuple[CommitRecord, ...]:
        """Every published update batch, in serialization order.

        Replaying these updates in order through a single synchronous
        reference warehouse must reproduce the assembled global state at
        each version — the differential oracle the concurrency tests run.
        """
        return tuple(self._commit_log)

    def snapshot(self) -> ShardedSnapshot:
        """The newest committed cross-shard snapshot (cached per version)."""
        snapshot = self._snapshot
        if snapshot is None:
            states = []
            for i, state in enumerate(self._committed):
                if state is None:
                    raise WarehouseError(
                        "sharded warehouse not initialized; call initialize()"
                    )
                states.append(state)
            snapshot = ShardedSnapshot(self._version, states, self._assembly)
            self._snapshot = snapshot
        return snapshot

    def relation(self, name: str) -> Relation:
        """The assembled global image of one warehouse relation."""
        return self.snapshot().relation(name)

    def state(self) -> Dict[str, Relation]:
        """The assembled global warehouse state at the newest commit."""
        return self.snapshot().state()

    def storage_rows(self) -> int:
        """Total materialized tuples across all shards (slices, not union)."""
        return sum(shard.storage_rows() for shard in self.shards)

    def reconstruct(self, relation: str) -> Relation:
        """Recompute one base relation via Equation (4), across shards."""
        if self.router.is_routed(relation):
            return _union_all(
                [shard.reconstruct(relation) for shard in self.shards]
            )
        return self.shards[0].reconstruct(relation)

    def answer(self, query) -> Relation:
        """Answer a source query from the newest committed snapshot.

        :meth:`Warehouse.answer <repro.core.warehouse.Warehouse.answer>` as
        shard 0 runs it (its query counter, tracer and
        ``REPRO_CHECK_QUERIES`` check), over the assembled global state.
        """
        return self.shards[0]._answer(query, self.snapshot().state())

    # ------------------------------------------------------------------
    # Writes: split / refresh / commit
    # ------------------------------------------------------------------

    def split(self, update: Update) -> Dict[int, Update]:
        """Route an update: non-empty per-shard parts keyed by shard index."""
        return self.router.split_update(update)

    def _write_footprint(self, update: Update) -> FrozenSet[str]:
        """The static write footprint of one update part (memoized by shape)."""
        updated = frozenset(delta.relation for delta in update)
        cached = self._footprints.get(updated)
        if cached is None:
            cached = write_footprint(self.spec, updated)
            self._footprints[updated] = cached
        return cached

    def apply_to_shard(self, index: int, update: Update) -> Dict[str, Delta]:
        """Refresh one shard with its part of a batch (no publication).

        The shard's state swap is locally atomic, but readers keep seeing
        the previous *committed* snapshot until :meth:`commit` publishes
        the whole batch — this is what keeps multi-shard batches untorn.
        Under ``REPRO_CHECK_RACES=1`` the refresh is bracketed by the race
        tracker: an uncommitted refresh by another worker on this shard, or
        a write outside the static footprint, fails loudly.
        """
        tracker = self._race_tracker
        footprint: FrozenSet[str] = frozenset()
        if tracker is not None:
            footprint = self._write_footprint(update)
            tracker.begin_refresh(index, footprint)
        applied = self.shards[index].apply(update)
        if tracker is not None:
            tracker.check_written(
                index,
                footprint,
                [
                    name
                    for name, delta in applied.items()
                    if len(delta.inserts) or len(delta.deletes)
                ],
            )
        metrics = self._metrics
        metrics.counter(f"warehouse.shard_refreshes.{index}").inc()
        rows = sum(len(d.inserts) + len(d.deletes) for d in applied.values())
        if rows:
            metrics.counter(f"warehouse.shard_refresh_rows.{index}").inc(rows)
        return applied

    def commit(
        self, shard_indices: Iterable[int], update: Optional[Update] = None
    ) -> int:
        """Publish the touched shards' current states as one new version.

        Runs as a single synchronous block (no awaits, no I/O): the state
        references of every touched shard are captured together, the global
        version bumps once, and the cached snapshot is invalidated — under
        cooperative (asyncio) concurrency a reader can never observe a
        partially-captured batch. ``update`` (the net batch, pre-split) is
        appended to :attr:`commit_log` for differential replay.
        """
        touched = tuple(sorted(set(shard_indices)))
        for index in touched:
            self._committed[index] = self.shards[index].state
        self._version += 1
        self._snapshot = None
        if update is not None:
            self._commit_log.append(CommitRecord(self._version, update, touched))
        if self._race_tracker is not None:
            self._race_tracker.end_commit(touched)
        self._metrics.counter("warehouse.commits").inc()
        return self._version

    def apply(self, update: Update) -> Dict[str, Delta]:
        """Split, refresh every affected shard, and commit — synchronously.

        Returns the per-shard effective deltas folded together (replicated
        relations report one shard's delta; sliced relations union their
        per-shard deltas — for intersection-assembled complements this fold
        is a diagnostic over-approximation of the global change, since the
        exact global delta needs both assembled images).
        """
        parts = self.split(update)
        if not parts:
            return {}
        merged: Dict[str, Delta] = {}
        for index in sorted(parts):
            for name, delta in self.apply_to_shard(index, parts[index]).items():
                existing = merged.get(name)
                if existing is None or name not in self._assembly:
                    merged[name] = delta
                else:
                    merged[name] = Delta(
                        name,
                        inserts=existing.inserts.union(delta.inserts),
                        deletes=existing.deletes.union(delta.deletes),
                    )
        self.commit(parts, update)
        return merged

    def apply_batch(self, updates: Iterable[Update]) -> Dict[str, Delta]:
        """Compose a batch into one net update and apply it once."""
        batch: Optional[Update] = None
        composed = 0
        for update in updates:
            batch = update if batch is None else batch.compose(update)
            composed += 1
        if batch is None:
            return {}
        self._metrics.histogram("warehouse.batch_size").observe(composed)
        return self.apply(batch)

    def insert(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> Dict[str, Delta]:
        """Convenience: apply an insertion update."""
        attrs = self.spec.catalog[relation].attributes
        return self.apply(Update.insert(relation, attrs, rows))

    def delete(
        self, relation: str, rows: Iterable[Sequence[object]]
    ) -> Dict[str, Delta]:
        """Convenience: apply a deletion update."""
        attrs = self.spec.catalog[relation].attributes
        return self.apply(Update.delete(relation, attrs, rows))

    # ------------------------------------------------------------------
    # Static-analysis surface
    # ------------------------------------------------------------------

    @property
    def assembly_report(self) -> AssemblyReport:
        """The prover's admission verdict this warehouse was built under."""
        return self._report

    @property
    def co_partitioned(self) -> Tuple[Tuple[str, ...], ...]:
        """Groups of routed relations admitted via co-partitioning."""
        return self._report.co_partitioned

    @property
    def race_tracker(self) -> Optional[RaceTracker]:
        """The ``REPRO_CHECK_RACES=1`` tracker (``None`` when disabled)."""
        return self._race_tracker

    def require_commutativity(self, certificate: Mapping[str, object]) -> None:
        """Refuse a sharding certificate that refutes batch commutativity.

        ``certificate`` is a sharding certificate document (as produced by
        ``python -m repro prove-sharding --certificates``). One recording
        *refuted* batch commutativity raises: concurrent use of this
        warehouse would be unsound, and silently continuing would hide
        that. Any other certificate changes nothing — plans are pure
        functions of the spec.
        """
        commutativity = certificate.get("commutativity")
        if isinstance(commutativity, Mapping) and commutativity.get(
            "commute"
        ) is False:
            raise WarehouseError(
                "sharding certificate refutes batch commutativity: "
                "concurrent per-source batches on this layout are "
                "order-dependent; refusing to accept the certificate"
            )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def metrics(self) -> MetricsRegistry:
        """Cross-shard instruments: commits, per-shard refresh counters
        (``warehouse.queries`` is shard 0's; see :meth:`aggregate_metrics`)."""
        return self._metrics

    def aggregate_metrics(self) -> MetricsRegistry:
        """A fresh registry folding this registry plus every shard's.

        Shard counters and histograms merge flat (summed across shards), so
        e.g. ``warehouse.refreshes`` is the total over all shards; per-shard
        detail stays available on ``shards[i].metrics``.
        """
        combined = MetricsRegistry()
        combined.merge_registry(self._metrics)
        for shard in self.shards:
            combined.merge_registry(shard.metrics)
        return combined

    def enable_tracing(self, capacity: int = 64) -> None:
        """Turn on tracing on every shard (read via ``shards[i]``; answers
        are traced on shard 0)."""
        for shard in self.shards:
            shard.enable_tracing(capacity)

    def __repr__(self) -> str:
        status = (
            "uninitialized" if any(s is None for s in self._committed)
            else f"version {self._version}"
        )
        return (
            f"ShardedWarehouse({self.router.shards} shards, "
            f"routed={list(self.router.routed_relations)}, {status})"
        )
