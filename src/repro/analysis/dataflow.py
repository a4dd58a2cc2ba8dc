"""Static plan-dataflow analysis: which sources must a refresh read?

Theorem 4.1 states the paper's update-independence guarantee: with a
complement stored, a warehouse refresh touches *no* source relation. This
module makes that claim statically checkable by computing, per update
shape (relation x insert/delete), the set of source relations the derived
maintenance plan would have to read:

* :func:`spec_read_sets` — over a full :class:`WarehouseSpec`: derive the
  maintenance expressions per update shape and collect every surviving
  source-relation reference. A correctly specified warehouse yields the
  empty set everywhere (the prover certifies ``update_independent`` from
  exactly this);
* :func:`views_only_read_sets` — over a bare view set (no complement):
  the delta expressions are folded against the views themselves, so the
  read set is empty precisely when the views are syntactically
  self-maintainable for that shape (the Section 4 closing case; the
  derivation is :func:`repro.core.selfmaint.base_reads_without_complement`,
  which :func:`~repro.core.selfmaint.self_maintainable_without_complement`
  reads per view);
* the **sanitizer** (``REPRO_CHECK_INVARIANTS=1``): at runtime,
  :meth:`repro.core.warehouse.Warehouse.apply` and ``answer`` cross-check
  the relations their trace read against the static read set
  (:func:`check_reads`) and fail loudly on divergence — a static analysis
  that disagrees with the engine is a bug in one of them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    NamedTuple,
    Set,
    Tuple,
)

from repro.errors import WarehouseError
from repro.schema.catalog import Catalog
from repro.views.psj import View
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import maintenance_expressions
from repro.core.selfmaint import base_reads_without_complement
from repro.storage.engine import SANITIZER_ENV

if TYPE_CHECKING:
    from repro.obs.trace import Span

KINDS = ("insert", "delete")


class UpdateShape(NamedTuple):
    """One update shape: a base relation plus a pure update kind."""

    relation: str
    kind: str

    def label(self) -> str:
        """The stable ``relation:kind`` label used in reports and JSON."""
        return f"{self.relation}:{self.kind}"


class DataflowReport(NamedTuple):
    """Per-update-shape source read sets for one warehouse definition.

    ``read_sets`` maps every shape to the (sorted) source relations its
    maintenance plan reads; ``update_independent`` is Theorem 4.1's
    verdict: true iff every read set is empty.
    """

    source_relations: Tuple[str, ...]
    read_sets: Tuple[Tuple[UpdateShape, Tuple[str, ...]], ...]

    @property
    def update_independent(self) -> bool:
        """Whether no update shape needs to read any source relation."""
        return all(not reads for _, reads in self.read_sets)

    def reads_for(self, relation: str, kind: str) -> Tuple[str, ...]:
        """The read set of one shape (raises for unknown shapes)."""
        for shape, reads in self.read_sets:
            if shape.relation == relation and shape.kind == kind:
                return reads
        raise WarehouseError(f"no dataflow entry for shape {relation}:{kind}")

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready rendering (the certificate's ``dataflow`` section)."""
        return {
            "update_independent": self.update_independent,
            "read_sets": {
                shape.label(): list(reads) for shape, reads in self.read_sets
            },
        }

    def describe(self) -> str:
        """Human-readable, one line per update shape."""
        lines = []
        for shape, reads in self.read_sets:
            verdict = "independent" if not reads else f"reads {list(reads)}"
            lines.append(f"{shape.label()}: {verdict}")
        lines.append(f"update independent: {self.update_independent}")
        return "\n".join(lines)


def _shapes(catalog: Catalog) -> List[UpdateShape]:
    return [
        UpdateShape(relation, kind)
        for relation in catalog.relation_names()
        for kind in KINDS
    ]


def spec_read_sets(spec: WarehouseSpec) -> DataflowReport:
    """Source relations each update shape's maintenance plan must read.

    For every base relation and pure update kind, derives the specialized
    maintenance expressions (:func:`repro.core.maintenance.maintenance_expressions`)
    and intersects the relations they reference — plus the Equation (4)
    inverses consulted by update normalization — with the source relation
    names. Complement-based specs come out empty everywhere: the inverse
    substitution replaced every base reference (Theorem 4.1).

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.views.psj import View
    >>> from repro.algebra.parser import parse
    >>> from repro.core.complement import specify
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Sale", ("item", "clerk"))
    >>> _ = catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    >>> spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
    >>> spec_read_sets(spec).update_independent
    True
    """
    sources = frozenset(spec.catalog.relation_names())
    read_sets: List[Tuple[UpdateShape, Tuple[str, ...]]] = []
    for shape in _shapes(spec.catalog):
        plan = maintenance_expressions(
            spec,
            [shape.relation],
            insert_only=shape.kind == "insert",
            delete_only=shape.kind == "delete",
        )
        reads: Set[str] = set()
        for delta in plan.expressions.values():
            reads |= delta.inserts.relation_names()
            reads |= delta.deletes.relation_names()
        # Normalizing the reported update evaluates the updated relation's
        # inverse; its references are part of the refresh's dataflow too.
        reads |= spec.inverses[shape.relation].relation_names()
        read_sets.append((shape, tuple(sorted(reads & sources))))
    return DataflowReport(tuple(sorted(sources)), tuple(read_sets))


def views_only_read_sets(catalog: Catalog, views: Iterable[View]) -> DataflowReport:
    """Source read sets for a bare view set maintained *without* complement.

    Each view's delta expressions are folded against the materialized views
    themselves; whatever base-relation references survive must be read from
    the sources. ``update_independent`` therefore reproduces the Section 4
    closing observation: a select-only view set needs no auxiliary data.

    Examples
    --------
    >>> from repro.schema import Catalog
    >>> from repro.views.psj import View
    >>> from repro.algebra.parser import parse
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    >>> report = views_only_read_sets(
    ...     catalog, [View("Senior", parse("sigma[age >= 40](Emp)"))]
    ... )
    >>> report.update_independent
    True
    """
    view_list = list(views)
    read_sets: List[Tuple[UpdateShape, Tuple[str, ...]]] = []
    for shape in _shapes(catalog):
        per_view = base_reads_without_complement(
            catalog,
            view_list,
            [shape.relation],
            insert_only=shape.kind == "insert",
            delete_only=shape.kind == "delete",
        )
        reads = {name for read in per_view.values() for name in read}
        read_sets.append((shape, tuple(sorted(reads))))
    return DataflowReport(tuple(sorted(catalog.relation_names())), tuple(read_sets))


# ----------------------------------------------------------------------
# The runtime sanitizer (REPRO_CHECK_INVARIANTS=1)
# ----------------------------------------------------------------------


def static_refresh_reads(
    spec: WarehouseSpec, updated: Iterable[str]
) -> FrozenSet[str]:
    """The static over-approximation of one refresh's source reads.

    The union of source relations referenced by the (unspecialized)
    maintenance plan for ``updated`` and by the inverses evaluated during
    update normalization. Every source relation a refresh can legitimately
    read is in this set; for a complement-carrying spec it is empty.
    """
    sources = frozenset(spec.catalog.relation_names())
    plan = maintenance_expressions(spec, updated)
    reads: Set[str] = set()
    for delta in plan.expressions.values():
        reads |= delta.inserts.relation_names()
        reads |= delta.deletes.relation_names()
    for relation in plan.updated:
        reads |= spec.inverses[relation].relation_names()
    return frozenset(reads) & sources


def check_reads(
    spec: WarehouseSpec, allowed: Iterable[str], root: "Span", what: str
) -> None:
    """Cross-check a trace against its static read set (the sanitizer).

    ``root`` is the traced refresh or answer, ``allowed`` the source and
    warehouse relations the static analysis says it may read, and ``what``
    names it in the message. Raises :class:`~repro.errors.WarehouseError`
    when the trace read any other relation of ``spec``: the engine and the
    analysis disagree, and silently continuing would hide a broken
    independence guarantee (Theorem 4.1 for a refresh, Theorem 3.1 for an
    answer). The converse — static mentions, runtime skipped, e.g. served
    from cache — is fine: the static set is an over-approximation.
    """
    from repro.obs.explain import source_relations_read

    static = frozenset(allowed)
    names = spec.catalog.relation_names() + spec.warehouse_names()
    extra = sorted(set(source_relations_read(root, names)) - static)
    if extra:
        raise WarehouseError(
            f"{what} sanitizer ({SANITIZER_ENV}=1): the {what} read "
            f"relation(s) {extra} outside the static read set {sorted(static)}"
        )


def check_refresh_reads(
    spec: WarehouseSpec, updated: Iterable[str], root: "Span"
) -> None:
    """:func:`check_reads` over one refresh of ``updated``.

    A refresh may read every warehouse relation, and the source relations
    of :func:`static_refresh_reads` — none, for a complement-carrying spec.
    """
    allowed = static_refresh_reads(spec, updated) | set(spec.warehouse_names())
    check_reads(spec, allowed, root, "refresh")
