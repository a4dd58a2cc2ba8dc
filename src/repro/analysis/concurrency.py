"""The shard-independence prover behind ``python -m repro prove-sharding``.

PR 8's sharded integrator rests on three claims that were previously
enforced only by convention and dynamic tests. This module decides them
statically, in the same PROVED/REFUTED/UNKNOWN shape as the independence
prover (:mod:`repro.analysis.prover`), and emits self-validating JSON
certificates hashed with the same canonical digest as the PR-7 plan cache
(:mod:`repro.analysis.digest`):

* **Assembly / co-partitioning** — :func:`classify_assembly` walks every
  warehouse definition over the *joint* slices of all routed relations and
  establishes, per relation, one of three structural identities:
  replicated (independent of routed facts), union-assembled
  (``E(∪ᵢRᵢ) = ∪ᵢE(Rᵢ)``), or intersection-assembled
  (``K − ∪ᵢBᵢ = ∩ᵢ(K − Bᵢ)``, the Theorem 2.2 complement shape). Unlike
  the single-routing walk it generalizes, a view joining *two* routed
  relations is admitted when the join equates their routing attributes
  and the two routings are **co-partitioned**
  (:meth:`repro.core.routing.ShardRouting.compatible_with`): equal routing
  values then land on the same shard, so same-shard evaluation covers
  every joining pair. Non-co-partitioned layouts are *refutable*: a
  bounded replay search (:func:`search_sharding_counterexample`) exhibits
  a tiny source state whose global image no per-shard assembly — union,
  intersection, or any single shard — reconstructs.

* **Batch commutativity** — concurrent workers fold per-source batches
  with ``Update.compose`` and interleave freely on disjoint shards, which
  is only sound if batch order cannot matter.
  :func:`decide_update_commutativity` decides order-independence for a
  concrete update pair by comparing the canonical ``(deletes, inserts)``
  normal forms of both compositions and, when they differ, constructs a
  *minimal interleaving counterexample*: a start state of at most one row
  plus the two orders' divergent end states.
  :func:`decide_source_commutativity` lifts this to declared source
  ownership — sources owning disjoint relations always commute; shared
  ownership is refuted with the canonical insert/delete interleaving.

* **Footprints** — :func:`shape_footprints` lifts the PR-4 per-update-shape
  dataflow (:mod:`repro.analysis.dataflow`) from source *reads* to
  warehouse *writes*: which stored relations each update shape's
  maintenance plan can change, and whether the shape routes to a single
  shard or broadcasts.

Certificates hash with :func:`repro.analysis.digest.canonical_digest`, like
the spec certificate of :func:`repro.compiler.certificate.certify`;
:meth:`repro.core.sharding.ShardedWarehouse.require_commutativity` refuses
a certificate whose commutativity claim is refuted.
"""

from __future__ import annotations

import itertools
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ReproError, WarehouseError
from repro.algebra.evaluator import evaluate_all
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
)
from repro.schema.catalog import Catalog
from repro.storage.relation import Relation
from repro.core.complement import WarehouseSpec, specify
from repro.core.maintenance import maintenance_expressions
from repro.core.routing import ShardRouting
from repro.analysis.dataflow import KINDS, UpdateShape
from repro.analysis.kernel import (
    CERTIFICATE_VERSION,
    PROVED,
    REFUTED,
    SHARDING_KIND,
    UNKNOWN,
    UNSHARDED,
    FileResult,
    Reader,
    Rows,
    State,
    Verdict,
    _json_rows,
    _row_key,
    _sorted_rows,
    certified,
    replay_states,
)
from repro.analysis.report import display_path
from repro.analysis.specfile import LintTarget, RoutingSpec

# How a warehouse relation's global image assembles from its shard images.
ASSEMBLE_REPLICATED = "replicated"  # independent of routed facts: any shard
ASSEMBLE_UNION = "union"  # E(∪ᵢRᵢ) = ∪ᵢ E(Rᵢ)
ASSEMBLE_INTERSECT = "intersect"  # E(∪ᵢRᵢ) = ∩ᵢ E(Rᵢ)


def assemble(mode: str, images: Sequence[Relation]) -> Relation:
    """The global image that ``images`` (one per shard) assemble to under ``mode``."""
    if mode == ASSEMBLE_REPLICATED:
        return images[0]
    combine = Relation.union if mode == ASSEMBLE_UNION else Relation.intersection
    combined = images[0]
    for image in images[1:]:
        combined = combine(combined, image)
    return combined


_SEARCH_BUDGET = 5000

Scope = Mapping[str, Tuple[str, ...]]


# ----------------------------------------------------------------------
# Assembly classification and co-partitioning
# ----------------------------------------------------------------------


class UnshardableError(WarehouseError):
    """A layout the slice analysis cannot admit.

    ``refutable`` marks failures where cross-shard information is
    *provably* lost (e.g. a two-routed join that is not co-partitioned) —
    the prover then runs the bounded replay search for a concrete
    counterexample. Non-refutable failures (unsupported operators, lost
    rootedness) are mere absence of proof and decide UNKNOWN.
    """

    def __init__(self, message: str, refutable: bool = False) -> None:
        super().__init__(message)
        self.refutable = refutable


class SliceAnalysis(NamedTuple):
    """Result of the decomposability walk for one subexpression.

    ``assemble`` — one of the ``ASSEMBLE_*`` modes; ``rooted`` — for
    union-mode subtrees, the output attribute names (after renames and
    projections) that still carry a routing value for *every* tuple the
    subtree can produce, under a single consistent value→shard map;
    ``contributors`` — the routed relations the subtree depends on.
    """

    assemble: str
    rooted: FrozenSet[str]
    contributors: FrozenSet[str]


class AssemblyReport(NamedTuple):
    """The prover's admission verdict for one spec + routing layout.

    ``assembly`` holds only the non-replicated warehouse relations (absent
    means replicated, matching :class:`ShardedSnapshot` defaults);
    ``contributors`` the routed relations each depends on;
    ``co_partitioned`` the groups of two-or-more routed relations some
    definition combines — admitted precisely because their routings are
    pairwise compatible.
    """

    assembly: Dict[str, str]
    contributors: Dict[str, Tuple[str, ...]]
    co_partitioned: Tuple[Tuple[str, ...], ...]

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the certificate's ``assembly`` facts)."""
        return {
            "assembly": dict(sorted(self.assembly.items())),
            "contributors": {
                name: list(relations)
                for name, relations in sorted(self.contributors.items())
            },
            "co_partitioned": [list(group) for group in self.co_partitioned],
        }


def _names(relations: Iterable[str]) -> str:
    listed = sorted(set(relations))
    if len(listed) == 1:
        return repr(listed[0])
    return " and ".join(repr(name) for name in listed)


def analyze_expression(
    expression: Expression,
    routings: Mapping[str, ShardRouting],
    scope: Scope,
    context: str,
) -> SliceAnalysis:
    """Decide how ``expression`` over joint slices assembles globally.

    The slices are *simultaneous*: shard ``i`` holds slice ``i`` of every
    routed relation plus the unrouted relations in full. For disjoint
    slices the walk establishes, per subtree, one of three structural
    identities: independence of every routed relation (*replicated*),
    ``E(∪ᵢRᵢ) = ∪ᵢE(Rᵢ)`` (*union* — PSJ operators distribute over union
    in each argument; two slice-dependent operands may only meet on a
    *rooted* attribute, one guaranteed to carry a routing value under one
    consistent value→shard map, so tuples from different slices never
    combine), or ``E(∪ᵢRᵢ) = ∩ᵢE(Rᵢ)`` (*intersect* — the ``K − π(…R…)``
    shape of Theorem 2.2 complements: subtracting a growing union flips
    union-assembly into intersection-assembly).

    Where two *different* routed relations meet, rootedness additionally
    requires their routings to be co-partitioned
    (:meth:`ShardRouting.compatible_with`); a rooted-but-incompatible join
    is refutable — equal join values shard apart, so same-shard evaluation
    misses the pair. Raises :class:`UnshardableError` where no identity
    can be established.
    """

    def fail(
        contributors: Iterable[str], reason: str, refutable: bool = False
    ) -> UnshardableError:
        return UnshardableError(
            f"cannot shard {_names(contributors)}: warehouse relation "
            f"{context!r} {reason}, so its global image is not assemblable "
            "from shard images",
            refutable=refutable,
        )

    def routing_attr(contributors: FrozenSet[str]) -> str:
        listed = sorted(routings[name].attribute for name in contributors)
        return listed[0]

    def compatible(left: FrozenSet[str], right: FrozenSet[str]) -> Optional[str]:
        """``None`` if every cross pair is co-partitioned, else a reason."""
        for a in sorted(left):
            for b in sorted(right):
                if a != b and not routings[a].compatible_with(routings[b]):
                    return (
                        f"combines co-routed relations {a!r} and {b!r} whose "
                        "routings partition the shared attribute differently "
                        "(not co-partitioned)"
                    )
        return None

    def walk(node: Expression) -> SliceAnalysis:
        if isinstance(node, RelationRef):
            routing = routings.get(node.name)
            if routing is not None:
                return SliceAnalysis(
                    ASSEMBLE_UNION,
                    frozenset((routing.attribute,)),
                    frozenset((node.name,)),
                )
            return SliceAnalysis(ASSEMBLE_REPLICATED, frozenset(), frozenset())
        if isinstance(node, Empty):
            return SliceAnalysis(ASSEMBLE_REPLICATED, frozenset(), frozenset())
        if isinstance(node, Select):
            # Selection commutes with both union and intersection.
            return walk(node.child)
        if isinstance(node, Project):
            inner = walk(node.child)
            if inner.assemble == ASSEMBLE_INTERSECT:
                # Projection does not commute with intersection.
                raise fail(
                    inner.contributors,
                    "projects an intersection-assembled image of "
                    f"{_names(inner.contributors)}",
                )
            return SliceAnalysis(
                inner.assemble,
                inner.rooted & frozenset(node.attrs),
                inner.contributors,
            )
        if isinstance(node, Rename):
            inner = walk(node.child)
            mapping = dict(node.mapping)
            return SliceAnalysis(
                inner.assemble,
                frozenset(mapping.get(name, name) for name in inner.rooted),
                inner.contributors,
            )
        if isinstance(node, Join):
            left, right = walk(node.left), walk(node.right)
            contributors = left.contributors | right.contributors
            kinds = {left.assemble, right.assemble}
            if kinds == {ASSEMBLE_REPLICATED}:
                return SliceAnalysis(ASSEMBLE_REPLICATED, frozenset(), frozenset())
            if ASSEMBLE_INTERSECT in kinds:
                # A natural-join tuple determines each operand's sub-tuple
                # (set semantics), so join commutes with intersection —
                # but only against a slice-independent other side.
                if kinds == {ASSEMBLE_INTERSECT, ASSEMBLE_REPLICATED}:
                    return SliceAnalysis(
                        ASSEMBLE_INTERSECT, frozenset(), contributors
                    )
                raise fail(
                    contributors,
                    "joins an intersection-assembled image of "
                    f"{_names(contributors)} with a slice-dependent side",
                )
            if left.assemble == ASSEMBLE_UNION and right.assemble == ASSEMBLE_UNION:
                shared = frozenset(node.left.attributes(scope)) & frozenset(
                    node.right.attributes(scope)
                )
                if not (left.rooted & right.rooted & shared):
                    raise fail(
                        contributors,
                        f"joins two subexpressions over {_names(contributors)} "
                        "without equating the routing attribute "
                        f"{routing_attr(contributors)!r}",
                        refutable=True,
                    )
                problem = compatible(left.contributors, right.contributors)
                if problem is not None:
                    raise fail(contributors, problem, refutable=True)
                return SliceAnalysis(
                    ASSEMBLE_UNION, left.rooted | right.rooted, contributors
                )
            rooted = left.rooted if left.assemble == ASSEMBLE_UNION else right.rooted
            return SliceAnalysis(ASSEMBLE_UNION, rooted, contributors)
        if isinstance(node, Union):
            left, right = walk(node.left), walk(node.right)
            contributors = left.contributors | right.contributors
            kinds = {left.assemble, right.assemble}
            if ASSEMBLE_INTERSECT in kinds:
                raise fail(
                    contributors,
                    "unions an intersection-assembled image of "
                    f"{_names(contributors)}",
                )
            if kinds == {ASSEMBLE_REPLICATED}:
                return SliceAnalysis(ASSEMBLE_REPLICATED, frozenset(), frozenset())
            if kinds == {ASSEMBLE_UNION}:
                if not (left.rooted & right.rooted):
                    raise fail(
                        contributors,
                        f"unions two subexpressions over {_names(contributors)} "
                        "that do not both retain the routing attribute "
                        f"{routing_attr(contributors)!r}",
                    )
                # Set union distributes over simultaneous slices
                # unconditionally; rootedness additionally needs one
                # consistent value→shard map across both sides.
                rooted = (
                    left.rooted & right.rooted
                    if compatible(left.contributors, right.contributors) is None
                    else frozenset()
                )
                return SliceAnalysis(ASSEMBLE_UNION, rooted, contributors)
            # Union with a slice-independent side replicates that side into
            # every shard image — still union-assembled (sets dedup), but
            # the result no longer determines a tuple's shard (not rooted).
            return SliceAnalysis(ASSEMBLE_UNION, frozenset(), contributors)
        if isinstance(node, Difference):
            left, right = walk(node.left), walk(node.right)
            contributors = left.contributors | right.contributors
            la, ra = left.assemble, right.assemble
            if la == ASSEMBLE_REPLICATED and ra == ASSEMBLE_REPLICATED:
                return SliceAnalysis(ASSEMBLE_REPLICATED, frozenset(), frozenset())
            if la == ASSEMBLE_UNION and ra == ASSEMBLE_REPLICATED:
                # (∪ᵢAᵢ) − K = ∪ᵢ(Aᵢ − K), unconditionally.
                return SliceAnalysis(ASSEMBLE_UNION, left.rooted, contributors)
            if la == ASSEMBLE_UNION and ra == ASSEMBLE_UNION:
                if not (left.rooted & right.rooted):
                    raise fail(
                        contributors,
                        "subtracts between subexpressions over "
                        f"{_names(contributors)} that do not both retain the "
                        f"routing attribute {routing_attr(contributors)!r}",
                    )
                # Same-shard cancellation: a tuple in Aᵢ may only be
                # cancelled by the matching Bᵢ, which needs one consistent
                # value→shard map across both sides.
                problem = compatible(left.contributors, right.contributors)
                if problem is not None:
                    raise fail(contributors, problem, refutable=True)
                return SliceAnalysis(
                    ASSEMBLE_UNION, left.rooted & right.rooted, contributors
                )
            if la == ASSEMBLE_REPLICATED and ra == ASSEMBLE_UNION:
                # K − (∪ᵢBᵢ) = ∩ᵢ(K − Bᵢ): the Theorem 2.2 complement
                # shape for relations joined against the routed one.
                return SliceAnalysis(ASSEMBLE_INTERSECT, frozenset(), contributors)
            if la == ASSEMBLE_INTERSECT and ra == ASSEMBLE_REPLICATED:
                # (∩ᵢAᵢ) − K = ∩ᵢ(Aᵢ − K).
                return SliceAnalysis(ASSEMBLE_INTERSECT, frozenset(), contributors)
            if la == ASSEMBLE_REPLICATED and ra == ASSEMBLE_INTERSECT:
                # K − (∩ᵢBᵢ) = ∪ᵢ(K − Bᵢ), but slices overlap: not rooted.
                return SliceAnalysis(ASSEMBLE_UNION, frozenset(), contributors)
            raise fail(
                contributors,
                f"subtracts incompatibly-assembled images of {_names(contributors)}",
            )
        raise fail(
            sorted(routings), f"uses unsupported operator {type(node).__name__}"
        )

    return walk(expression)


def classify_assembly(
    definitions: Mapping[str, Expression],
    scope: Scope,
    routings: Mapping[str, ShardRouting],
) -> AssemblyReport:
    """Classify every warehouse relation's assembly under ``routings``.

    Raises :class:`UnshardableError` (a :class:`WarehouseError`) when any
    definition admits no structural identity — ``refutable`` marks layouts
    where the failure is a provable loss, not just absence of proof.
    """
    assembly: Dict[str, str] = {}
    contributors: Dict[str, Tuple[str, ...]] = {}
    groups: Set[Tuple[str, ...]] = set()
    for name in sorted(definitions):
        analysis = analyze_expression(definitions[name], routings, scope, name)
        if analysis.assemble == ASSEMBLE_REPLICATED:
            continue
        assembly[name] = analysis.assemble
        contributors[name] = tuple(sorted(analysis.contributors))
        if len(analysis.contributors) >= 2:
            groups.add(tuple(sorted(analysis.contributors)))
    return AssemblyReport(assembly, contributors, tuple(sorted(groups)))


# ----------------------------------------------------------------------
# Per-update-shape footprints
# ----------------------------------------------------------------------


class ShapeFootprint(NamedTuple):
    """One update shape's static refresh footprint over warehouse relations.

    ``routed`` — whether the shape's deltas route to a single shard (its
    relation is partitioned) or broadcast to all shards; ``reads`` /
    ``writes`` — the warehouse relations the shape's maintenance plan
    references / can change.
    """

    shape: UpdateShape
    routed: bool
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the certificate's ``footprints`` entry)."""
        return {
            "routed": self.routed,
            "reads": list(self.reads),
            "writes": list(self.writes),
        }


def _plan_writes(spec: WarehouseSpec, updated: Sequence[str], **kinds: bool) -> Tuple[Set[str], Set[str]]:
    plan = maintenance_expressions(spec, updated, **kinds)
    reads: Set[str] = set()
    writes: Set[str] = set()
    for name, delta in plan.expressions.items():
        if not (isinstance(delta.inserts, Empty) and isinstance(delta.deletes, Empty)):
            writes.add(name)
        reads |= delta.inserts.relation_names()
        reads |= delta.deletes.relation_names()
    return reads, writes


def shape_footprints(
    spec: WarehouseSpec, routings: Mapping[str, ShardRouting]
) -> Tuple[ShapeFootprint, ...]:
    """The per-update-shape read/write footprints for one spec + layout."""
    warehouse_names = frozenset(spec.warehouse_names())
    out: List[ShapeFootprint] = []
    for relation in spec.catalog.relation_names():
        for kind in KINDS:
            reads, writes = _plan_writes(
                spec,
                [relation],
                insert_only=kind == "insert",
                delete_only=kind == "delete",
            )
            # Normalizing the reported update evaluates the updated
            # relation's inverse; its references are read too.
            reads |= spec.inverses[relation].relation_names()
            out.append(
                ShapeFootprint(
                    UpdateShape(relation, kind),
                    relation in routings,
                    tuple(sorted(reads & warehouse_names)),
                    tuple(sorted(writes)),
                )
            )
    return tuple(out)


# ----------------------------------------------------------------------
# Update.compose commutativity
# ----------------------------------------------------------------------


class InterleavingWitness(NamedTuple):
    """A minimal counterexample to batch commutativity on one relation.

    ``start`` is a state of at most one row; applying ``first`` then
    ``second`` versus ``second`` then ``first`` ends in the two recorded —
    different — states. :func:`replay_interleaving` recomputes both ends
    from the inputs, so the witness is independently checkable.
    """

    relation: str
    attributes: Tuple[str, ...]
    start: Rows
    first_inserts: Rows
    first_deletes: Rows
    second_inserts: Rows
    second_deletes: Rows
    first_then_second: Rows
    second_then_first: Rows

    def to_dict(self) -> Dict[str, object]:
        """A deterministic JSON-ready rendering."""
        return {
            "kind": "interleaving",
            "relation": self.relation,
            "attributes": list(self.attributes),
            "start": _json_rows(self.start),
            "first": {
                "inserts": _json_rows(self.first_inserts),
                "deletes": _json_rows(self.first_deletes),
            },
            "second": {
                "inserts": _json_rows(self.second_inserts),
                "deletes": _json_rows(self.second_deletes),
            },
            "first_then_second": _json_rows(self.first_then_second),
            "second_then_first": _json_rows(self.second_then_first),
        }

    def describe(self) -> str:
        """Human-readable one-relation interleaving trace."""
        return (
            f"{self.relation}: from {sorted(self.start)} — "
            f"first;second -> {sorted(self.first_then_second)}, "
            f"second;first -> {sorted(self.second_then_first)}"
        )


def _apply_rows(
    state: FrozenSet[Tuple[object, ...]],
    deletes: Iterable[Tuple[object, ...]],
    inserts: Iterable[Tuple[object, ...]],
) -> FrozenSet[Tuple[object, ...]]:
    return (state - frozenset(deletes)) | frozenset(inserts)


def replay_interleaving(witness: InterleavingWitness) -> Tuple[Rows, Rows]:
    """Recompute both interleaving orders' end states from the witness."""
    start = frozenset(witness.start)
    one = _apply_rows(
        _apply_rows(start, witness.first_deletes, witness.first_inserts),
        witness.second_deletes,
        witness.second_inserts,
    )
    other = _apply_rows(
        _apply_rows(start, witness.second_deletes, witness.second_inserts),
        witness.first_deletes,
        witness.first_inserts,
    )
    return _sorted_rows(one), _sorted_rows(other)


def _chain(
    steps: Sequence[Tuple[FrozenSet[Tuple[object, ...]], FrozenSet[Tuple[object, ...]]]]
) -> Tuple[FrozenSet[Tuple[object, ...]], FrozenSet[Tuple[object, ...]]]:
    """Fold ``(deletes, inserts)`` steps into one ``s ↦ (s − D) ∪ I`` map."""
    deletes: FrozenSet[Tuple[object, ...]] = frozenset()
    inserts: FrozenSet[Tuple[object, ...]] = frozenset()
    for step_deletes, step_inserts in steps:
        deletes = deletes | step_deletes
        inserts = (inserts - step_deletes) | step_inserts
    # Canonical form: a delete immediately re-inserted never removes.
    return deletes - inserts, inserts


def decide_update_commutativity(
    first: Mapping[str, Tuple[Rows, Rows]],
    second: Mapping[str, Tuple[Rows, Rows]],
    attributes: Mapping[str, Tuple[str, ...]],
) -> Optional[InterleavingWitness]:
    """Decide whether two updates commute; a witness refutes, ``None`` proves.

    Updates are given per relation as ``(inserts, deletes)`` row tuples.
    Two updates commute iff, per relation, both composition orders have
    the same canonical ``s ↦ (s − D) ∪ I`` normal form — updates touching
    disjoint relations therefore always commute (the async integrator's
    per-source precondition). When the normal forms differ the
    distinguishing start state is at most one row: the empty state when
    the insert sets differ, a single disputed row when only the effective
    delete sets do.
    """
    for relation in sorted(set(first) | set(second)):
        f_ins, f_del = first.get(relation, ((), ()))
        s_ins, s_del = second.get(relation, ((), ()))
        step_f = (frozenset(f_del), frozenset(f_ins))
        step_s = (frozenset(s_del), frozenset(s_ins))
        d12, i12 = _chain([step_f, step_s])
        d21, i21 = _chain([step_s, step_f])
        if d12 == d21 and i12 == i21:
            continue
        if i12 != i21:
            start: Tuple[Tuple[object, ...], ...] = ()
        else:
            disputed = sorted(d12 ^ d21, key=_row_key)[0]
            start = (disputed,)
        base = frozenset(start)
        end12 = _apply_rows(_apply_rows(base, f_del, f_ins), s_del, s_ins)
        end21 = _apply_rows(_apply_rows(base, s_del, s_ins), f_del, f_ins)
        return InterleavingWitness(
            relation=relation,
            attributes=attributes.get(relation, ()),
            start=_sorted_rows(start),
            first_inserts=_sorted_rows(f_ins),
            first_deletes=_sorted_rows(f_del),
            second_inserts=_sorted_rows(s_ins),
            second_deletes=_sorted_rows(s_del),
            first_then_second=_sorted_rows(end12),
            second_then_first=_sorted_rows(end21),
        )
    return None


class CommutativityResult(NamedTuple):
    """One source pair's commutativity verdict."""

    pair: Tuple[str, str]
    shared: Tuple[str, ...]
    witness: Optional[InterleavingWitness]

    @property
    def commutes(self) -> bool:
        """Whether every batch interleaving of this pair is order-free."""
        return self.witness is None

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the certificate's ``pairs`` entry)."""
        out: Dict[str, object] = {
            "pair": list(self.pair),
            "shared": list(self.shared),
            "verdict": "commute" if self.commutes else "refuted",
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_dict()
        return out


def default_ownership(catalog: Catalog) -> Dict[str, Tuple[str, ...]]:
    """The integrator's default: one source owning each base relation."""
    return {
        f"src_{name}": (name,) for name in catalog.relation_names()
    }


def decide_source_commutativity(
    catalog: Catalog, ownership: Mapping[str, Sequence[str]]
) -> Tuple[CommutativityResult, ...]:
    """Decide, per source pair, whether their batches always commute.

    Sources owning disjoint relations commute for *every* batch pair
    (``Update.compose`` on disjoint relations is symmetric). A shared
    relation is refuted with the canonical minimal interleaving: one
    source inserts a row the other deletes, and the two orders diverge.
    """
    results: List[CommutativityResult] = []
    names = sorted(ownership)
    for left, right in itertools.combinations(names, 2):
        shared = tuple(sorted(set(ownership[left]) & set(ownership[right])))
        witness: Optional[InterleavingWitness] = None
        if shared:
            relation = shared[0]
            attributes = tuple(catalog[relation].attributes)
            row = tuple(0 for _ in attributes)
            witness = decide_update_commutativity(
                {relation: ((row,), ())},
                {relation: ((), (row,))},
                {relation: attributes},
            )
            assert witness is not None  # insert vs delete of one row
        results.append(CommutativityResult((left, right), shared, witness))
    return tuple(results)


# ----------------------------------------------------------------------
# Bounded replay search for refuted layouts
# ----------------------------------------------------------------------


class ShardingWitness(NamedTuple):
    """A source state whose global image no per-shard assembly rebuilds.

    ``relation`` is the warehouse relation that diverges: evaluated over
    the global state its image is ``global_rows``, but the union,
    intersection, and single-shard assemblies of its per-slice images all
    differ from it — replaying updates through per-shard pipelines from
    this state diverges from the unsharded reference no matter how the
    shard images are recombined.
    """

    relation: str
    attributes: Dict[str, Tuple[str, ...]]
    state: Dict[str, Rows]
    global_rows: Rows
    shard_rows: Tuple[Rows, ...]
    union_rows: Rows
    intersect_rows: Rows
    states_examined: int

    def to_dict(self) -> Dict[str, object]:
        """A deterministic JSON-ready rendering."""
        return {
            "kind": "sharding",
            "relation": self.relation,
            "attributes": {
                name: list(attrs) for name, attrs in sorted(self.attributes.items())
            },
            "state": {
                name: _json_rows(rows) for name, rows in sorted(self.state.items())
            },
            "global": _json_rows(self.global_rows),
            "shards": [_json_rows(rows) for rows in self.shard_rows],
            "union": _json_rows(self.union_rows),
            "intersect": _json_rows(self.intersect_rows),
            "states_examined": self.states_examined,
        }

    def describe(self) -> str:
        """Human-readable summary of the divergence."""
        lines = [
            f"{name}: {sorted(rows)}" for name, rows in sorted(self.state.items())
        ]
        lines.append(
            f"=> {self.relation}: global {sorted(self.global_rows)}, "
            f"per-shard union {sorted(self.union_rows)}, "
            f"intersect {sorted(self.intersect_rows)}"
        )
        return "\n".join(lines)


def _probe_values(routings: Mapping[str, ShardRouting]) -> List[object]:
    """Candidate routing values straddling every boundary and hash bucket."""
    values: List[object] = []
    for name in sorted(routings):
        routing = routings[name]
        if routing.strategy == "range":
            for bound in routing.boundaries:
                if isinstance(bound, bool):
                    values.append(bound)
                elif isinstance(bound, int):
                    values.extend([bound - 1, bound, bound + 1])
                elif isinstance(bound, str):
                    values.extend(["", bound, bound + "~"])
                else:
                    values.append(bound)
        else:
            values.extend(range(max(4, routing.shards + 2)))
    seen: List[object] = []
    for value in values:
        if value not in seen:
            seen.append(value)
    return seen if seen else [0, 1, 2, 3]


def _slice_state(
    state: Mapping[str, Relation],
    routings: Mapping[str, ShardRouting],
    shards: int,
) -> List[Dict[str, Relation]]:
    slices: List[Dict[str, Relation]] = [dict() for _ in range(shards)]
    for name, relation in state.items():
        routing = routings.get(name)
        if routing is None:
            for part in slices:
                part[name] = relation
            continue
        position = relation.attributes.index(routing.attribute)
        buckets: List[List[Tuple[object, ...]]] = [[] for _ in range(shards)]
        for row in relation.rows:
            buckets[routing.shard_of(row[position])].append(row)
        for index, rows in enumerate(buckets):
            slices[index][name] = Relation(relation.attributes, rows)
    return slices


def _assemblies_diverge(
    name: str,
    global_image: Relation,
    shard_images: Sequence[Relation],
) -> Optional[Tuple[Relation, Relation]]:
    union = assemble(ASSEMBLE_UNION, shard_images)
    intersect = assemble(ASSEMBLE_INTERSECT, shard_images)
    if (
        global_image != union
        and global_image != intersect
        and global_image != shard_images[0]
    ):
        return union, intersect
    return None


def search_sharding_counterexample(
    definitions: Mapping[str, Expression],
    source_attrs: Scope,
    routings: Mapping[str, ShardRouting],
    budget: int = _SEARCH_BUDGET,
) -> Optional[ShardingWitness]:
    """Search tiny source states for an unassemblable warehouse image.

    Enumerates one-row-per-relation states whose routing and join
    attributes range over boundary-straddling probe values, evaluates
    every warehouse definition globally and per shard, and returns the
    first state where some relation's global image differs from *all*
    three assemblies (union, intersection, single shard). Deterministic:
    same inputs, same witness — refuted certificates can be golden-pinned.
    """
    shards = next(iter(routings.values())).shards if routings else 1
    referenced: Set[str] = set()
    for expression in definitions.values():
        referenced |= expression.relation_names() & set(source_attrs)
    candidates = sorted(referenced)
    if not candidates:
        return None
    probes = _probe_values(routings)
    shared_attrs: Set[str] = set()
    for left, right in itertools.combinations(candidates, 2):
        shared_attrs |= set(source_attrs[left]) & set(source_attrs[right])

    def routable(routing: ShardRouting, value: object) -> bool:
        try:
            routing.shard_of(value)
        except WarehouseError:
            return False
        return True

    per_relation_rows: List[List[Tuple[object, ...]]] = []
    for name in candidates:
        attrs = source_attrs[name]
        routing = routings.get(name)
        pools: List[List[object]] = []
        for attribute in attrs:
            if routing is not None and attribute == routing.attribute:
                pools.append([v for v in probes if routable(routing, v)])
            elif attribute in shared_attrs:
                pools.append(list(probes))
            else:
                pools.append([0])
        per_relation_rows.append([row for row in itertools.product(*pools)])

    examined = 0
    empty = {
        name: Relation(tuple(source_attrs[name]), [])
        for name in source_attrs
        if name not in referenced
    }
    for combination in itertools.product(*per_relation_rows):
        examined += 1
        if examined > budget:
            return None
        state: Dict[str, Relation] = dict(empty)
        for name, row in zip(candidates, combination):
            state[name] = Relation(tuple(source_attrs[name]), [row])
        global_images = evaluate_all(dict(definitions), state)
        slices = _slice_state(state, routings, shards)
        shard_images = [evaluate_all(dict(definitions), part) for part in slices]
        for name in sorted(definitions):
            divergence = _assemblies_diverge(
                name, global_images[name], [img[name] for img in shard_images]
            )
            if divergence is None:
                continue
            union, intersect = divergence
            return ShardingWitness(
                relation=name,
                attributes={
                    rel: tuple(source_attrs[rel]) for rel in candidates
                },
                state={
                    rel: _sorted_rows(state[rel].rows) for rel in candidates
                },
                global_rows=_sorted_rows(global_images[name].rows),
                shard_rows=tuple(
                    _sorted_rows(img[name].rows) for img in shard_images
                ),
                union_rows=_sorted_rows(union.rows),
                intersect_rows=_sorted_rows(intersect.rows),
                states_examined=examined,
            )
    return None


def verify_sharding_witness(
    definitions: Mapping[str, Expression],
    source_attrs: Scope,
    routings: Mapping[str, ShardRouting],
    witness: Mapping[str, object],
) -> List[str]:
    """Independently re-check a serialized sharding witness."""
    problems: List[str] = []
    state_raw = witness.get("state")
    relation = str(witness.get("relation"))
    if not isinstance(state_raw, Mapping):
        return ["witness lacks a 'state' section"]
    if relation not in definitions:
        return [f"witness names unknown warehouse relation {relation!r}"]
    state: Dict[str, Relation] = {
        name: Relation(tuple(source_attrs[name]), [])
        for name in source_attrs
    }
    for name, rows in state_raw.items():
        if str(name) not in source_attrs:
            return [f"witness state names unknown relation {name!r}"]
        state[str(name)] = Relation(
            tuple(source_attrs[str(name)]),
            [tuple(row) for row in rows],  # type: ignore[union-attr]
        )
    shards = next(iter(routings.values())).shards if routings else 1
    try:
        global_image = evaluate_all(dict(definitions), state)[relation]
        slices = _slice_state(state, routings, shards)
        shard_images = [
            evaluate_all(dict(definitions), part)[relation] for part in slices
        ]
    except ReproError as exc:
        return [f"witness replay failed: {exc}"]
    if _assemblies_diverge(relation, global_image, shard_images) is None:
        problems.append(
            f"witness does not diverge: some assembly of {relation!r} "
            "matches the global image"
        )
    return problems


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------


def _plan_cache_key(spec: WarehouseSpec) -> Optional[str]:
    """The spec certificate digest this layout composes with, if any."""
    from repro.compiler.certificate import certify
    from repro.errors import CompileError

    try:
        return certify(spec).digest
    except (CompileError, ReproError):
        return None


def build_sharding_certificate(
    spec: WarehouseSpec,
    routings: Mapping[str, ShardRouting],
    report: AssemblyReport,
    footprints: Sequence[ShapeFootprint],
    commutativity: Sequence[CommutativityResult],
    ownership: Mapping[str, Sequence[str]],
) -> Dict[str, object]:
    """The machine-checkable certificate for an admitted sharded layout.

    Self-contained: the warehouse mapping and routings are serialized in
    re-parseable form, so :func:`check_sharding_certificate` can re-run
    the classification and the numeric replay without the spec object.
    ``plan_cache_key`` is the spec certificate digest
    (:func:`repro.compiler.certificate.certify`) the layout was proved
    under, ``None`` for a spec that has none.
    """
    shard_count = next(iter(routings.values())).shards if routings else 1
    assembly_all: Dict[str, str] = {
        name: report.assembly.get(name, ASSEMBLE_REPLICATED)
        for name in sorted(spec.warehouse_names())
    }
    return {
        "version": CERTIFICATE_VERSION,
        "kind": SHARDING_KIND,
        "shards": shard_count,
        "routings": [routings[name].to_dict() for name in sorted(routings)],
        "source_relations": {
            schema.name: list(schema.attributes)
            for schema in spec.catalog.schemas()
        },
        "warehouse": {
            name: str(expression)
            for name, expression in spec.definitions_over_sources().items()
        },
        "assembly": assembly_all,
        "contributors": {
            name: list(relations)
            for name, relations in sorted(report.contributors.items())
        },
        "co_partitioned": [list(group) for group in report.co_partitioned],
        "footprints": {
            footprint.shape.label(): footprint.to_dict()
            for footprint in footprints
        },
        "commutativity": {
            "sources": {
                name: sorted(ownership[name]) for name in sorted(ownership)
            },
            "pairs": [result.to_dict() for result in commutativity],
            "commute": all(result.commutes for result in commutativity),
        },
        "plan_cache_key": _plan_cache_key(spec),
    }


def _routing_problems(
    catalog: Catalog, routings: Mapping[str, ShardRouting]
) -> List[str]:
    """Routings must name catalog relations and route on their attributes."""
    problems: List[str] = []
    for name, routing in routings.items():
        if name not in catalog:
            problems.append(f"routed relation {name!r} not in catalog")
        elif routing.attribute not in catalog[name].attributes:
            problems.append(
                f"routing attribute {routing.attribute!r} is not an "
                f"attribute of {name!r}"
            )
    return problems


def _parse_certificate_routings(reader: Reader) -> Dict[str, ShardRouting]:
    routings: Dict[str, ShardRouting] = {}
    for entry in reader.sequence("routings"):
        if not isinstance(entry, Mapping):
            reader.problems.append(f"malformed routing entry {entry!r}")
            continue
        boundaries = entry.get("boundaries")
        shards = entry.get("shards")
        try:
            routing = ShardRouting(
                str(entry.get("relation")),
                str(entry.get("attribute")),
                boundaries=list(boundaries) if isinstance(boundaries, list) else None,
                shards=shards if isinstance(shards, int) else None,
            )
        except WarehouseError as exc:
            reader.problems.append(f"certificate failed to parse back: {exc}")
            continue
        routings[routing.relation] = routing
    return routings


def check_sharding_certificate(
    catalog: Catalog, certificate: Mapping[str, object]
) -> List[str]:
    """Independently validate a sharding certificate; returns problems.

    Structural checks: routings parse back, name catalog relations, route
    on declared attributes and agree with the recorded shard count; the
    recorded assembly modes and co-partitioned groups match a fresh
    classification of the re-parsed warehouse mapping. Numeric replay:
    for several seeded random constraint-satisfying databases, the global
    image of every warehouse relation must equal its recorded assembly of
    the per-shard images. Commutativity facts replay too: disjoint pairs
    must really be disjoint, refuted pairs' interleaving witnesses must
    diverge.
    """
    problems: List[str] = []
    reader = Reader(certificate, problems)
    definitions = reader.expressions("warehouse")
    routings = _parse_certificate_routings(reader)
    if problems:
        return problems

    shards = certificate.get("shards")
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        return [f"certificate 'shards' is not a positive integer: {shards!r}"]
    problems.extend(_routing_problems(catalog, routings))
    for name, routing in routings.items():
        if routing.shards != shards:
            problems.append(
                f"routing of {name!r} maps onto {routing.shards} shard(s), "
                f"the certificate records {shards}"
            )
    if problems:
        return problems

    assembly = {
        name: str(mode)
        for name, mode in reader.mapping("assembly", optional=True).items()
    }
    scope = {schema.name: schema.attributes for schema in catalog.schemas()}
    try:
        report = classify_assembly(definitions, scope, routings)
    except UnshardableError as exc:
        return [f"recorded layout no longer classifies: {exc}"]
    for name, mode in report.assembly.items():
        if assembly.get(name) != mode:
            problems.append(
                f"recorded assembly of {name!r} is {assembly.get(name)!r}, "
                f"re-derived {mode!r}"
            )
    recorded_groups = [
        list(group) if isinstance(group, (list, tuple)) else group
        for group in reader.sequence("co_partitioned", optional=True)
    ]
    derived_groups = [list(group) for group in report.co_partitioned]
    if len(recorded_groups) != len(derived_groups) or any(
        group not in recorded_groups for group in derived_groups
    ):
        problems.append(
            f"recorded co-partitioned groups {recorded_groups!r} do not "
            f"match re-derived {derived_groups!r}"
        )

    commutativity = Reader(
        reader.mapping("commutativity", optional=True), problems, "commutativity"
    )
    for entry in commutativity.sequence("pairs", optional=True):
        if not isinstance(entry, Mapping):
            problems.append(f"malformed commutativity pair {entry!r}")
            continue
        verdict = entry.get("verdict")
        if verdict == "commute":
            if entry.get("shared"):
                problems.append(
                    f"pair {entry.get('pair')!r} claims commutativity "
                    f"but shares relation(s) {entry.get('shared')!r}"
                )
        elif verdict == "refuted":
            witness_raw = entry.get("witness")
            if not isinstance(witness_raw, Mapping):
                problems.append(
                    f"refuted pair {entry.get('pair')!r} has no witness"
                )
                continue
            problems.extend(_check_interleaving(witness_raw))
    sources = Reader(
        commutativity.mapping("sources", optional=True), problems, "source"
    )
    for name in sources.document:
        unknown = [rel for rel in sources.sequence(name) if str(rel) not in catalog]
        if unknown:
            problems.append(f"source {name!r} owns unknown relation(s) {unknown}")
    if problems:
        return problems

    def assembles(state: State, image: State) -> Iterable[str]:
        # Every relation's recorded assembly must rebuild the global image.
        slices = _slice_state(state, routings, shards)
        shard_images = [evaluate_all(definitions, part) for part in slices]
        for name in sorted(definitions):
            mode = assembly.get(name, ASSEMBLE_REPLICATED)
            assembled = assemble(mode, [img[name] for img in shard_images])
            if assembled != image[name]:
                yield f"{mode} assembly of {name!r} does not match the global image"

    return replay_states(catalog, definitions, assembles)


def _check_interleaving(witness: Mapping[str, object]) -> List[str]:
    """Re-run a serialized interleaving witness; must diverge as recorded."""
    malformed: List[str] = []
    top = Reader(witness, malformed, "witness")

    def rows(reader: Reader, key: str) -> Rows:
        listed = reader.sequence(key, optional=True)
        found = [tuple(row) for row in listed if isinstance(row, (list, tuple))]
        if len(found) != len(listed):
            malformed.append(f"witness {key!r} holds a non-row")
        return tuple(found)

    first = Reader(top.mapping("first"), malformed, "witness")
    second = Reader(top.mapping("second"), malformed, "witness")
    rebuilt = InterleavingWitness(
        relation=str(witness.get("relation")),
        attributes=tuple(str(a) for a in top.sequence("attributes", optional=True)),
        start=rows(top, "start"),
        first_inserts=rows(first, "inserts"),
        first_deletes=rows(first, "deletes"),
        second_inserts=rows(second, "inserts"),
        second_deletes=rows(second, "deletes"),
        first_then_second=rows(top, "first_then_second"),
        second_then_first=rows(top, "second_then_first"),
    )
    if malformed:
        return [f"malformed interleaving witness {witness!r}"]
    one, other = replay_interleaving(rebuilt)
    problems: List[str] = []
    if one == other:
        problems.append(
            "interleaving witness does not diverge: both orders end in "
            f"{list(one)!r}"
        )
    if one != rebuilt.first_then_second or other != rebuilt.second_then_first:
        problems.append(
            "interleaving witness end states do not replay as recorded"
        )
    return problems


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------


def _routings_from_specs(
    specs: Sequence[RoutingSpec],
) -> Dict[str, ShardRouting]:
    routings: Dict[str, ShardRouting] = {}
    for entry in specs:
        if entry.relation in routings:
            raise WarehouseError(
                f"relation {entry.relation!r} routed more than once"
            )
        routings[entry.relation] = ShardRouting(
            entry.relation,
            entry.attribute,
            boundaries=entry.boundaries,
            shards=entry.shards,
        )
    counts = {routing.shards for routing in routings.values()}
    if len(counts) > 1:
        raise WarehouseError(
            f"inconsistent shard counts across routings: {sorted(counts)}"
        )
    return routings


def prove_sharding_target(
    target: LintTarget, method: str = "thm22"
) -> FileResult:
    """Decide one loaded spec file's sharded configuration."""
    options = target.sharding
    expect = options.expect if options is not None else "proved"
    undecided = Verdict(display_path(target.path), UNKNOWN, "", expect)

    def decided(verdict: Verdict) -> FileResult:
        return FileResult(target.path, {"kind": SHARDING_KIND}, (verdict,))

    if options is None:
        return decided(
            undecided._replace(
                verdict=UNSHARDED, detail="no sharding section; nothing to decide"
            )
        )

    def invalid(error: str) -> FileResult:
        return decided(
            undecided._replace(detail="routing configuration is invalid", error=error)
        )

    catalog = target.catalog
    try:
        routings = _routings_from_specs(options.routings)
    except WarehouseError as exc:
        return invalid(str(exc))
    misrouted = _routing_problems(catalog, routings)
    if misrouted:
        return invalid(misrouted[0])
    try:
        spec = specify(catalog, target.views, method=method)
    except ReproError as exc:
        return decided(
            undecided._replace(
                detail="complement construction failed", error=str(exc)
            )
        )
    definitions = spec.definitions_over_sources()
    scope = spec.source_scope()

    ownership: Mapping[str, Sequence[str]] = (
        options.sources if options.sources else default_ownership(catalog)
    )
    unknown_owned = sorted(
        {
            str(rel)
            for owned in ownership.values()
            for rel in owned
            if str(rel) not in catalog
        }
    )
    if unknown_owned:
        return invalid(f"sharding.sources owns unknown relation(s) {unknown_owned}")
    commutativity = decide_source_commutativity(catalog, ownership)
    refuted_pairs = [result for result in commutativity if not result.commutes]

    try:
        report = classify_assembly(definitions, scope, routings)
    except UnshardableError as exc:
        if exc.refutable:
            witness = search_sharding_counterexample(definitions, scope, routings)
            if witness is not None:
                detail = (
                    f"{exc} — confirmed by replay: {witness.relation!r} "
                    f"diverges on a {sum(len(r) for r in witness.state.values())}-row "
                    f"state ({witness.states_examined} state(s) examined)"
                )
                return decided(
                    undecided._replace(
                        verdict=REFUTED, detail=detail, witness=witness
                    )
                )
        return decided(undecided._replace(detail=str(exc)))

    if refuted_pairs:
        first = refuted_pairs[0]
        assert first.witness is not None
        detail = (
            f"sources {first.pair[0]!r} and {first.pair[1]!r} share "
            f"relation(s) {list(first.shared)}; their batches do not commute "
            f"({first.witness.describe()})"
        )
        return decided(
            undecided._replace(verdict=REFUTED, detail=detail, witness=first.witness)
        )

    footprints = shape_footprints(spec, routings)
    certificate = build_sharding_certificate(
        spec, routings, report, footprints, commutativity, ownership
    )
    modes = sorted(set(report.assembly.values()))
    detail = (
        f"{len(report.assembly)} relation(s) slice-assembled "
        f"({', '.join(modes) if modes else 'all replicated'}), "
        f"{len(report.co_partitioned)} co-partitioned group(s), "
        f"{len(commutativity)} source pair(s) commute"
    )
    proved = undecided._replace(verdict=PROVED, detail=detail, certificate=certificate)
    problems = check_sharding_certificate(catalog, certificate)
    return decided(certified(proved, problems, "sharding certificate"))
