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

Commits are MVCC-style: each shard refresh swaps that shard's immutable
state mapping, and :meth:`ShardedWarehouse.commit` publishes the batch by
capturing the touched shards' state references in one synchronous block —
readers resolving :meth:`ShardedWarehouse.snapshot` therefore never observe
a half-applied batch, and a reader holding a snapshot keeps a consistent
image while any number of later commits land (see
:mod:`repro.storage.snapshot`). A batch that raises on one shard is undone on
the shards it already refreshed (:meth:`ShardedWarehouse.rollback`), so it
publishes nothing. Every commit is appended to
:attr:`ShardedWarehouse.commit_log`, the replay script that the seeded
interleaving explorer (``tests/integrator/explore.py``) feeds back through
an unsharded reference warehouse after every schedule it runs.

A union-assembled image is patched, not re-unioned: each commit folds the
deltas its shards' refreshes applied into an accumulated ``(D, I)`` against
the last image a reader assembled, and the next read returns
``(image − (D − I)) ∪ I`` (:class:`repro.storage.patch.Patch`).
A deleted row enters ``D`` only when no shard image still holds it, so the
patch is exact for overlapping images too. ``docs/integrator.md`` lists when
assembly falls back to the full union.
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
from repro.algebra.evaluator import evaluate
from repro.algebra.expressions import Expression
from repro.obs.metrics import MetricsRegistry
from repro.schema.catalog import Catalog
from repro.storage.database import Database
from repro.storage.patch import Patch
from repro.storage.relation import Relation
from repro.storage.update import Delta, Update
from repro.views.psj import View
from repro.analysis.concurrency import (
    ASSEMBLE_INTERSECT,
    ASSEMBLE_REPLICATED,
    ASSEMBLE_UNION,
    AssemblyReport,
    assemble,
    classify_assembly,
)
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


# Per union-assembled relation: (deleted rows, inserted rows).
_Deltas = Dict[str, Tuple[FrozenSet[tuple], FrozenSet[tuple]]]


class ShardedSnapshot:
    """A consistent cross-shard read view at one commit version.

    Holds the per-shard state mappings captured at commit time, plus each
    warehouse relation's *assembly mode* — how its global image is built
    from the shard images. Union-assembled relations (definitions rooted in
    a routed base) union their shard images; intersection-assembled ones
    (the ``K − π(…routed…)`` complement shape) intersect them; replicated
    relations read from shard 0. Assembly is lazy and memoized per
    snapshot; a union-assembled relation with a ``patches`` entry
    (a :class:`~repro.storage.patch.Patch`) assembles as ``(image − (D − I))
    ∪ I`` instead, and ``metrics`` counts the two ways; :meth:`image` memoizes
    base relations' inverses too. The read API mirrors
    :class:`~repro.storage.snapshot.SnapshotView`.
    """

    __slots__ = ("_version", "_states", "_assembly", "_memo", "_patches", "_metrics",
                 "_images")

    def __init__(
        self,
        version: int,
        states: Sequence[Mapping[str, Relation]],
        assembly: Mapping[str, str],
        patches: Optional[Mapping[str, Patch]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._version = version
        self._states: Tuple[Mapping[str, Relation], ...] = tuple(states)
        self._assembly = assembly
        self._memo: Dict[str, Relation] = {}
        self._patches: Mapping[str, Patch] = patches or {}
        self._metrics = metrics
        self._images: Dict[str, Relation] = {}

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
        else:
            patch = self._patches.get(name)  # union-assembled relations only
            if patch is None:
                assembled = assemble(mode, [state[name] for state in self._states])
            else:
                assembled = patch.read()
            if mode == ASSEMBLE_UNION and self._metrics is not None:
                how = "full" if patch is None else "patched"
                self._metrics.counter(f"warehouse.snapshot_assemblies.{how}").inc()
        self._memo[name] = assembled
        return assembled

    def image(self, name: str, inverse: Expression,
              engine: Optional[str] = None) -> Relation:
        """Base relation ``name``'s ``inverse`` over this snapshot, kept."""
        image = self._images.get(name)
        if image is None:
            state = self.state(inverse.relation_names())
            image = self._images[name] = evaluate(inverse, state, engine=engine)
        return image

    def shard_relation(self, shard: int, name: str) -> Relation:
        """One shard's pinned image of a warehouse relation."""
        try:
            return self._states[shard][name]
        except (IndexError, KeyError):
            raise WarehouseError(
                f"snapshot (version {self._version}): no relation "
                f"{name!r} on shard {shard}"
            ) from None

    def state(self, names: Optional[Iterable[str]] = None) -> Dict[str, Relation]:
        """The assembled ``{name: Relation}`` global state, or its ``names`` part.

        A name this snapshot does not hold is skipped, and a relation not
        named is not assembled.
        """
        names = self.names() if names is None else [n for n in names if n in self]
        return {name: self.relation(name) for name in names}

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
        self.shards: Tuple[Warehouse, ...] = tuple(
            Warehouse(spec, engine=engine) for _ in range(router.shards)
        )
        self._committed: List[Optional[Dict[str, Relation]]] = [
            None for _ in range(router.shards)
        ]
        self._version = 0
        self._snapshot: Optional[ShardedSnapshot] = None
        # Union-assembled relations, when there is more than one image.
        self._patchable = tuple(sorted(
            n for n, m in self._assembly.items() if m == ASSEMBLE_UNION
        )) if router.shards > 1 else ()
        # Per shard, uncommitted refreshes: (start state, end state, deltas).
        self._pending: Dict[int, Tuple[Optional[Mapping], Mapping, _Deltas]] = {}
        # Per union-assembled relation, the newest version's patch.
        self._patches: Dict[str, Patch] = {}
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
            snapshot = ShardedSnapshot(
                self._version, states, self._assembly, self._patches, self._metrics
            )
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
        """One base relation via Equation (4), across shards.

        Like :meth:`answer`, it reads the newest committed snapshot (a
        shard's live state may hold a refresh whose batch has not
        committed yet), through the snapshot's inverse image.
        """
        return self.snapshot().image(
            relation, self.spec.inverse_for(relation), self.shards[0].engine
        )

    def answer(self, query) -> Relation:
        """Answer a source query from the newest committed snapshot.

        :meth:`Warehouse.answer <repro.core.warehouse.Warehouse.answer>` as
        shard 0 runs it (its query counter, tracer and
        ``REPRO_CHECK_INVARIANTS`` check), over the snapshot's relations the
        plan reads (the others are never assembled) and the inverse images
        of its base relations (:meth:`ShardedSnapshot.image`).
        """
        snapshot = self.snapshot()
        inverses, engine = self.spec.inverses, self.shards[0].engine

        def bound(plan: Expression) -> Dict[str, Relation]:
            names = plan.relation_names()
            state = snapshot.state(names)
            for name in names & inverses.keys():
                state[name] = snapshot.image(name, inverses[name], engine)
            return state

        return self.shards[0]._answer(query, bound)

    # ------------------------------------------------------------------
    # Writes: split / refresh / commit
    # ------------------------------------------------------------------

    def split(self, update: Update) -> Dict[int, Update]:
        """Route an update: non-empty per-shard parts keyed by shard index."""
        return self.router.split_update(update)

    def apply_to_shard(self, index: int, update: Update) -> Dict[str, Delta]:
        """Refresh one shard with its part of a batch (no publication).

        The shard's state swap is locally atomic, but readers keep seeing
        the previous *committed* snapshot until :meth:`commit` publishes
        the whole batch — this is what keeps multi-shard batches untorn.
        The applied deltas of union-assembled relations are kept until
        that commit folds them into the assembly patches.
        """
        shard = self.shards[index]
        before = shard._state
        applied = shard.apply(update)
        self._record(index, before, shard.state, applied)
        metrics = self._metrics
        metrics.counter(f"warehouse.shard_refreshes.{index}").inc()
        rows = sum(len(d.inserts) + len(d.deletes) for d in applied.values())
        if rows:
            metrics.counter(f"warehouse.shard_refresh_rows.{index}").inc(rows)
        return applied

    def _record(
        self, index: int, before: Optional[Mapping], after: Mapping,
        applied: Mapping[str, Delta],
    ) -> None:
        """Chain one refresh's union-assembled deltas onto the shard's pending ones."""
        start, end, deltas = self._pending.get(index, (before, before, {}))
        if end is not before:
            start, deltas = before, {}
        for name in self._patchable:
            if name in applied:
                attributes = after[name].attributes
                removed = applied[name].deletes.reorder(attributes).rows
                added = applied[name].inserts.reorder(attributes).rows
                old_removed, old_added = deltas.get(name, (frozenset(), frozenset()))
                deltas[name] = (old_removed | removed, (old_added - removed) | added)
        self._pending[index] = (start, after, deltas)

    def _fold(self, changed: Optional[List[_Deltas]]) -> None:
        """Fold one commit's shard deltas into every relation's assembly patch.

        The base is the superseded snapshot's image when a reader assembled
        it; otherwise the old base and its accumulated delta carry forward.
        ``changed`` is ``None`` when a touched shard's state is not the one
        its recorded refreshes led to: every relation then assembles in full.
        """
        carried, self._patches = self._patches, {}
        if changed is None:
            return
        previous = self._snapshot
        for name in self._patchable:
            image = previous._memo.get(name) if previous is not None else None
            if image is not None:
                patch = Patch(image.without_columnar_twin())
            elif name in carried:
                patch = carried[name]
            else:
                continue
            for deltas in changed:
                if name in deltas:
                    removed, added = deltas[name]
                    # A row leaves the global image only when no shard keeps it.
                    gone = frozenset(
                        row for row in removed
                        if not any(row in s[name].rows for s in self._committed)
                    )
                    patch = patch.folded(gone, added)
            if patch.fits():
                self._patches[name] = patch

    def commit(
        self, shard_indices: Iterable[int], update: Optional[Update] = None
    ) -> int:
        """Publish the touched shards' current states as one new version.

        Runs as a single synchronous block (no awaits, no I/O): the state
        references of every touched shard are captured together, the global
        version bumps once, and the cached snapshot is invalidated — under
        cooperative (asyncio) concurrency a reader can never observe a
        partially-captured batch. ``update`` (the net batch, pre-split) is
        appended to :attr:`commit_log` for differential replay. The touched
        shards' pending deltas fold into the assembly patches (:meth:`_fold`).
        """
        touched = tuple(sorted(set(shard_indices)))
        changed: Optional[List[_Deltas]] = []
        for index in touched:
            state = self.shards[index].state
            start, end, deltas = self._pending.pop(index, (None, None, {}))
            if state is not self._committed[index] and changed is not None:
                if start is self._committed[index] and end is state:
                    changed.append(deltas)
                else:
                    changed = None
            self._committed[index] = state
        self._fold(changed)
        self._version += 1
        self._snapshot = None
        if update is not None:
            self._commit_log.append(CommitRecord(self._version, update, touched))
        self._metrics.counter("warehouse.commits").inc()
        return self._version

    def rollback(self, shard_indices: Iterable[int]) -> None:
        """Return shards to their committed state, dropping uncommitted refreshes.

        A batch that raises on shard *k* has already refreshed the shards
        before *k*; without this, the next commit touching them would
        publish those changes under a log record that does not name them.
        """
        for index in shard_indices:
            self._pending.pop(index, None)
            committed = self._committed[index]
            shard = self.shards[index]
            if committed is not None and shard.state is not committed:
                shard._commit(committed)

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
        try:
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
        except BaseException:
            self.rollback(parts)
            raise
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
