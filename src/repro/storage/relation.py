"""Immutable set-semantics relation instances and their algebra.

A :class:`Relation` couples an attribute tuple (the schema, order-significant
for presentation only) with a ``frozenset`` of value tuples aligned to that
order. All operations are *named* relational algebra: unions and differences
require equal attribute sets (and re-align column order as needed), joins are
natural joins over shared attribute names.

The class is deliberately immutable: every operation returns a new relation.
That makes relations safe to share between a database state, a warehouse
state, and memoized evaluation caches.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from repro.errors import ExpressionError

Row = Tuple[object, ...]


class Relation:
    """An immutable relation: attribute names plus a set of rows.

    Parameters
    ----------
    attributes:
        Attribute names, order-significant for row layout.
    rows:
        Iterable of tuples (or lists), each as long as ``attributes``.

    Examples
    --------
    >>> r = Relation(("item", "clerk"), [("TV", "Mary"), ("PC", "John")])
    >>> len(r)
    2
    >>> r.project(("clerk",)).to_set() == {("Mary",), ("John",)}
    True
    """

    __slots__ = (
        "_attributes",
        "_rows",
        "_attribute_set",
        "_index_cache",
        "_projection_cache",
        "_columnar",
    )

    # A union/difference result inherits (patches) the base relation's hash
    # indexes when the other side is at most 1/_PATCH_RATIO of the base --
    # the incremental-maintenance regime, where the base is a big warehouse
    # relation and the other side is a delta.
    _PATCH_RATIO = 4

    def __init__(self, attributes: Sequence[str], rows: Iterable[Sequence[object]] = ()) -> None:
        attrs = tuple(attributes)
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in relation schema {attrs}")
        self._attributes = attrs
        self._attribute_set = frozenset(attrs)
        width = len(attrs)
        materialized = set()
        for row in rows:
            tup = tuple(row)
            if len(tup) != width:
                raise ExpressionError(
                    f"row {tup!r} has {len(tup)} values, schema {attrs} expects {width}"
                )
            materialized.add(tup)
        self._rows: FrozenSet[Row] = frozenset(materialized)
        self._index_cache: Dict[frozenset, Dict[Row, List[Row]]] = {}
        self._projection_cache: Dict[Tuple[str, ...], FrozenSet[Row]] = {}
        self._columnar = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "Relation":
        """The empty relation over ``attributes``."""
        return cls(attributes, ())

    @classmethod
    def from_dicts(
        cls, attributes: Sequence[str], dicts: Iterable[Mapping[str, object]]
    ) -> "Relation":
        """Build a relation from mappings ``{attribute: value}``."""
        attrs = tuple(attributes)
        return cls(attrs, (tuple(d[a] for a in attrs) for d in dicts))

    def _with_rows(self, rows: Iterable[Row]) -> "Relation":
        rel = Relation.__new__(Relation)
        rel._attributes = self._attributes
        rel._attribute_set = self._attribute_set
        rel._rows = frozenset(rows)
        rel._index_cache = {}
        rel._projection_cache = {}
        rel._columnar = None
        return rel

    @classmethod
    def _raw(cls, attributes: Tuple[str, ...], rows: FrozenSet[Row]) -> "Relation":
        """Internal constructor from already-validated parts (no copying)."""
        rel = cls.__new__(cls)
        rel._attributes = attributes
        rel._attribute_set = frozenset(attributes)
        rel._rows = rows
        rel._index_cache = {}
        rel._projection_cache = {}
        rel._columnar = None
        return rel

    def _derive_caches(
        self, result: "Relation", added: FrozenSet[Row], removed: FrozenSet[Row]
    ) -> None:
        """Patch this relation's caches onto ``result`` (rows differ by a delta).

        Hash-join buckets are patched per touched key (untouched buckets are
        shared -- they are never mutated after construction). Projection
        results distribute over row insertion (``pi(R + I) = pi(R) + pi(I)``)
        but not over deletion under set semantics, so cached projections are
        carried forward only when nothing was removed. The columnar twin,
        when present, is patched in O(delta) too: deletions flip its
        row-validity bitmap, insertions append to its code columns.
        """
        if self._columnar is not None:
            result._columnar = self._columnar.patched(added, removed)
        for shared_set, buckets in self._index_cache.items():
            positions = tuple(
                self._attributes.index(a) for a in sorted(shared_set)
            )
            patched = dict(buckets)
            for row in added:
                key = tuple(row[p] for p in positions)
                bucket = list(patched.get(key, ()))
                bucket.append(row)
                patched[key] = bucket
            for row in removed:
                key = tuple(row[p] for p in positions)
                bucket = [r for r in patched.get(key, ()) if r != row]
                if bucket:
                    patched[key] = bucket
                else:
                    patched.pop(key, None)
            result._index_cache[shared_set] = patched
        if not removed:
            for attrs, projected in self._projection_cache.items():
                positions = tuple(self._attributes.index(a) for a in attrs)
                result._projection_cache[attrs] = projected | frozenset(
                    tuple(row[p] for p in positions) for row in added
                )

    def _is_delta_sized(self, other: "Relation") -> bool:
        has_caches = bool(
            self._index_cache or self._projection_cache or self._columnar is not None
        )
        return has_caches and len(other._rows) * self._PATCH_RATIO <= len(self._rows)

    def columnar(self):
        """This relation's columnar twin (built lazily, then cached).

        The twin is a :class:`repro.storage.columnar.ColumnarTable` holding
        the same rows as dictionary-coded columns. It rides along through
        delta-sized unions/differences via :meth:`_derive_caches` — under
        the *same* staleness guard (:meth:`_is_delta_sized`) as the hash
        indexes — so in incremental maintenance the columnar engine never
        re-encodes a big warehouse relation from scratch.
        """
        twin = self._columnar
        if twin is None:
            from repro.storage.columnar import ColumnarTable

            twin = ColumnarTable.from_relation(self)
            self._columnar = twin
        return twin

    def has_columnar_twin(self) -> bool:
        """Whether a columnar twin is already attached (observability)."""
        return self._columnar is not None

    def without_columnar_twin(self) -> "Relation":
        """The same rows and hash indexes, without the columnar twin.

        Delta patching the twin copies every column: O(rows) per patch.
        """
        if self._columnar is None:
            return self
        rel = self._with_rows(self._rows)
        rel._index_cache = dict(self._index_cache)
        rel._projection_cache = dict(self._projection_cache)
        return rel

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def attributes(self) -> Tuple[str, ...]:
        """Attribute names in row-layout order."""
        return self._attributes

    @property
    def attribute_set(self) -> frozenset:
        """Attribute names as a frozen set."""
        return self._attribute_set

    @property
    def rows(self) -> FrozenSet[Row]:
        """The rows, as a frozenset of value tuples."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row: Sequence[object]) -> bool:
        return tuple(row) in self._rows

    def to_set(self) -> FrozenSet[Row]:
        """Alias of :attr:`rows`, reading better in assertions."""
        return self._rows

    def to_dicts(self) -> List[Dict[str, object]]:
        """The rows as a list of ``{attribute: value}`` dicts (sorted)."""
        return [dict(zip(self._attributes, row)) for row in sorted(self._rows, key=repr)]

    def row_dict(self, row: Row) -> Dict[str, object]:
        """A single row as a ``{attribute: value}`` dict."""
        return dict(zip(self._attributes, row))

    # ------------------------------------------------------------------
    # Alignment helpers
    # ------------------------------------------------------------------

    def reorder(self, attributes: Sequence[str]) -> "Relation":
        """This relation with columns re-laid-out in the given order.

        ``attributes`` must be a permutation of this relation's attributes.
        """
        attrs = tuple(attributes)
        if attrs == self._attributes:
            return self
        if frozenset(attrs) != self._attribute_set:
            raise ExpressionError(
                f"cannot reorder {self._attributes} as {attrs}: attribute sets differ"
            )
        positions = tuple(self._attributes.index(a) for a in attrs)
        return Relation(attrs, (tuple(row[p] for p in positions) for row in self._rows))

    def _aligned_rows(self, other: "Relation") -> FrozenSet[Row]:
        """``other``'s rows re-laid-out in ``self``'s column order."""
        if other._attributes == self._attributes:
            return other._rows
        if other._attribute_set != self._attribute_set:
            raise ExpressionError(
                "attribute sets differ: "
                f"{sorted(self._attribute_set)} vs {sorted(other._attribute_set)}"
            )
        positions = tuple(other._attributes.index(a) for a in self._attributes)
        return frozenset(tuple(row[p] for p in positions) for row in other._rows)

    # ------------------------------------------------------------------
    # Relational algebra
    # ------------------------------------------------------------------

    def project(self, attributes: Sequence[str]) -> "Relation":
        """Projection ``pi_Z`` onto the given attributes (set semantics)."""
        attrs = tuple(attributes)
        missing = set(attrs) - self._attribute_set
        if missing:
            raise ExpressionError(
                f"cannot project onto {sorted(missing)}: not attributes of "
                f"{self._attributes}"
            )
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in projection {attrs}")
        cached = self._projection_cache.get(attrs)
        if cached is None:
            positions = tuple(self._attributes.index(a) for a in attrs)
            cached = frozenset(
                tuple(row[p] for p in positions) for row in self._rows
            )
            self._projection_cache[attrs] = cached
        return Relation._raw(attrs, cached)

    def project_or_empty(self, attributes: Sequence[str]) -> "Relation":
        """The paper's projection convention (Section 2).

        ``pi_Z(R)`` is the usual projection if ``Z subseteq attr(R)``, and the
        *empty relation over Z* otherwise.
        """
        if set(attributes) <= self._attribute_set:
            return self.project(attributes)
        return Relation.empty(tuple(attributes))

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Selection by a row predicate (rows are value tuples)."""
        return self._with_rows(row for row in self._rows if predicate(row))

    def union(self, other: "Relation") -> "Relation":
        """Set union; attribute sets must agree.

        A union with nothing new returns ``self`` unchanged (preserving
        object identity, and with it every derived cache); a delta-sized
        union patches the hash indexes instead of discarding them.
        """
        aligned = self._aligned_rows(other)
        added = aligned - self._rows
        if not added:
            return self
        result = self._with_rows(self._rows | added)
        if self._is_delta_sized(other):
            self._derive_caches(result, added, frozenset())
        return result

    def difference(self, other: "Relation") -> "Relation":
        """Set difference; attribute sets must agree.

        Like :meth:`union`, an ineffective difference returns ``self``
        itself and a delta-sized one patches the hash indexes.
        """
        aligned = self._aligned_rows(other)
        removed = aligned & self._rows
        if not removed:
            return self
        result = self._with_rows(self._rows - removed)
        if self._is_delta_sized(other):
            self._derive_caches(result, frozenset(), removed)
        return result

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection; attribute sets must agree."""
        return self._with_rows(self._rows & self._aligned_rows(other))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; ``mapping`` sends old names to new names."""
        unknown = set(mapping) - self._attribute_set
        if unknown:
            raise ExpressionError(
                f"cannot rename {sorted(unknown)}: not attributes of {self._attributes}"
            )
        new_attrs = tuple(mapping.get(a, a) for a in self._attributes)
        if len(set(new_attrs)) != len(new_attrs):
            raise ExpressionError(f"renaming {dict(mapping)} collides on {new_attrs}")
        return Relation(new_attrs, self._rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join over shared attribute names (hash join).

        With no shared attributes this degenerates to the cartesian product,
        matching standard natural-join semantics.
        """
        shared = tuple(a for a in self._attributes if a in other._attribute_set)
        other_extra = tuple(a for a in other._attributes if a not in self._attribute_set)
        out_attrs = self._attributes + other_extra

        # Bucket keys use the *sorted* shared attribute order so cached
        # buckets are valid regardless of either operand's column order.
        shared_sorted = tuple(sorted(shared))
        self_shared_pos = tuple(self._attributes.index(a) for a in shared_sorted)
        other_shared_pos = tuple(other._attributes.index(a) for a in shared_sorted)
        other_extra_pos = tuple(other._attributes.index(a) for a in other_extra)
        shared_set = frozenset(shared)

        # Probe the side that already has (or will get) a cached hash table.
        # Relations are immutable, so join buckets are cached per shared
        # attribute set; in incremental maintenance the big, unchanged side
        # keeps its buckets across updates and delta-sized probes dominate.
        probe_other = (
            shared_set in other._index_cache
            or (
                shared_set not in self._index_cache
                and len(self._rows) <= len(other._rows)
            )
        )
        out_rows = []
        if probe_other:
            buckets = other._join_buckets(shared_set, other_shared_pos)
            for row in self._rows:
                key = tuple(row[p] for p in self_shared_pos)
                for match in buckets.get(key, ()):
                    out_rows.append(row + tuple(match[p] for p in other_extra_pos))
        else:
            buckets = self._join_buckets(shared_set, self_shared_pos)
            for row in other._rows:
                key = tuple(row[p] for p in other_shared_pos)
                extra = tuple(row[p] for p in other_extra_pos)
                for match in buckets.get(key, ()):
                    out_rows.append(match + extra)
        return Relation(out_attrs, out_rows)

    def semi_join(self, other: "Relation") -> "Relation":
        """Semi-join ``self ⋉ other``: rows of ``self`` with a join partner.

        Equals ``pi_{attr(self)}(self natural_join other)`` but never
        materializes the join. With no shared attributes the join is a
        cartesian product, so the result is ``self`` when ``other`` is
        non-empty and the empty relation otherwise.

        Examples
        --------
        >>> r = Relation(("a", "b"), [(1, 10), (2, 20)])
        >>> s = Relation(("b", "c"), [(10, "x")])
        >>> r.semi_join(s).to_set() == {(1, 10)}
        True
        """
        shared = tuple(a for a in self._attributes if a in other._attribute_set)
        if not shared:
            return self if other._rows else self._with_rows(())
        shared_sorted = tuple(sorted(shared))
        self_pos = tuple(self._attributes.index(a) for a in shared_sorted)
        other_pos = tuple(other._attributes.index(a) for a in shared_sorted)
        # Reuse join buckets: semi/anti joins only need key membership, but
        # sharing one index per attribute set with natural_join means a
        # relation probed both ways builds its hash table exactly once.
        keys = other._join_buckets(frozenset(shared), other_pos)
        return self._with_rows(
            row for row in self._rows if tuple(row[p] for p in self_pos) in keys
        )

    def anti_join(self, other: "Relation") -> "Relation":
        """Anti-join ``self ▷ other``: rows of ``self`` with no join partner.

        Equals ``self - (self semi_join other)``; this is the evaluation
        shape of the paper's complements ``C_i = R_i - pi_{R_i}(V_j)``
        (Proposition 2.2) when ``V_j`` joins ``R_i`` with other relations.

        Examples
        --------
        >>> r = Relation(("a", "b"), [(1, 10), (2, 20)])
        >>> s = Relation(("b", "c"), [(10, "x")])
        >>> r.anti_join(s).to_set() == {(2, 20)}
        True
        """
        shared = tuple(a for a in self._attributes if a in other._attribute_set)
        if not shared:
            return self._with_rows(()) if other._rows else self
        shared_sorted = tuple(sorted(shared))
        self_pos = tuple(self._attributes.index(a) for a in shared_sorted)
        other_pos = tuple(other._attributes.index(a) for a in shared_sorted)
        keys = other._join_buckets(frozenset(shared), other_pos)
        return self._with_rows(
            row
            for row in self._rows
            if tuple(row[p] for p in self_pos) not in keys
        )

    def _join_buckets(
        self, shared_set: frozenset, positions: Tuple[int, ...]
    ) -> Dict[Row, List[Row]]:
        """Rows grouped by their projection onto ``shared_set`` (cached)."""
        cached = self._index_cache.get(shared_set)
        if cached is not None:
            return cached
        buckets: Dict[Row, List[Row]] = {}
        for row in self._rows:
            key = tuple(row[p] for p in positions)
            buckets.setdefault(key, []).append(row)
        self._index_cache[shared_set] = buckets
        return buckets

    def restrict(self, attributes: Sequence[str], keys: Iterable[Row]) -> "Relation":
        """Rows whose values on ``attributes`` lie in ``keys``.

        Each key is aligned with ``attributes``. Probes the join index over
        the first of ``attributes`` in column order (schemas lead with their
        key) — built once, then delta-patched across refreshes like every
        join index — and checks the rest.
        """
        first = next(a for a in self._attributes if a in attributes)
        buckets = self._join_buckets(
            frozenset((first,)), (self._attributes.index(first),)
        )
        at = list(attributes).index(first)
        positions = tuple(self._attributes.index(a) for a in attributes)
        keys = frozenset(keys)
        return self._with_rows(
            row
            for value in {key[at] for key in keys}
            for row in buckets.get((value,), ())
            if tuple(row[p] for p in positions) in keys
        )

    def has_join_index(self, attributes: Iterable[str]) -> bool:
        """Whether a join index over ``attributes`` is already built.

        Storage-level observability: the evaluator annotates join spans
        with ``index_hit`` by asking this *before* joining, which makes
        the persistent-index layer (indexes surviving delta-patched
        unions/differences across refreshes) visible in traces. Read-only
        — it never builds the index.
        """
        return frozenset(attributes) in self._index_cache

    def cached_index_count(self) -> int:
        """How many join indexes this instance currently holds (metrics)."""
        return len(self._index_cache)

    # ------------------------------------------------------------------
    # Constraint-oriented helpers
    # ------------------------------------------------------------------

    def key_violations(self, key: Sequence[str]) -> List[Tuple[Row, Row]]:
        """Pairs of distinct rows agreeing on ``key`` (empty iff key holds)."""
        positions = tuple(self._attributes.index(a) for a in key)
        seen: Dict[Row, Row] = {}
        violations = []
        for row in sorted(self._rows, key=repr):
            key_value = tuple(row[p] for p in positions)
            if key_value in seen:
                violations.append((seen[key_value], row))
            else:
                seen[key_value] = row
        return violations

    def index_on(self, key: Sequence[str]) -> Dict[Row, Row]:
        """A unique index ``key value -> row``; requires the key to hold."""
        positions = tuple(self._attributes.index(a) for a in key)
        index: Dict[Row, Row] = {}
        for row in self._rows:
            key_value = tuple(row[p] for p in positions)
            if key_value in index:
                raise ExpressionError(f"key {tuple(key)} does not hold: {key_value!r}")
            index[key_value] = row
        return index

    # ------------------------------------------------------------------
    # Equality & display
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._attribute_set != other._attribute_set:
            return False
        return self._rows == self._aligned_rows(other)

    def __hash__(self) -> int:
        canonical = tuple(sorted(self._attribute_set))
        return hash((canonical, self.reorder(canonical)._rows if self._rows else frozenset()))

    def __repr__(self) -> str:
        return f"Relation({self._attributes}, {len(self._rows)} rows)"

    def pretty(self, max_rows: int = 20) -> str:
        """A small fixed-width table rendering (for examples and docs)."""
        header = list(self._attributes)
        body = [[repr(v) for v in row] for row in sorted(self._rows, key=repr)[:max_rows]]
        widths = [len(h) for h in header]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        def fmt(cells: List[str]) -> str:
            return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))
        lines = [fmt(header), "-+-".join("-" * w for w in widths)]
        lines.extend(fmt(row) for row in body)
        if len(self._rows) > max_rows:
            lines.append(f"... ({len(self._rows) - max_rows} more rows)")
        return "\n".join(lines)
