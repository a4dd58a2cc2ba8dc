"""Dict-encoded columnar storage and batch-at-a-time kernels.

The tuple-set :class:`~repro.storage.relation.Relation` stores a relation as
a ``frozenset`` of value tuples; every operator then pays Python-level work
*per row* (a compiled predicate call, a key-tuple allocation, a hash probe).
This module is the physical layer that removes that cost: a
:class:`ColumnarTable` stores the same relation as

* one **code column** per attribute — a flat ``list`` of small ints,
* a process-wide **dictionary** interning every value ever seen
  (``value -> code``), so equal values always carry equal codes and joins,
  unions, differences, and equality selections compare plain ints,
* an optional **row-validity bitmap** — deletions patched into a cached
  table mark rows dead in O(delta) instead of rebuilding the columns.

Kernels are *batch-at-a-time*: each one processes whole columns with
comprehensions and C-level primitives (``zip``, ``set``, ``dict.fromkeys``)
— never a Python ``for`` statement over rows. ``scripts/check_hotpath.py``
enforces this structurally (rules C1/C2): loop statements are confined to
the facade (encode / decode / patch), and value tuples are materialized
only at the :meth:`ColumnarTable.to_relation` boundary.

Set semantics are preserved throughout: every live row of a table is
distinct, mirroring the frozenset representation exactly. The Hypothesis
suite ``tests/storage/test_columnar_equivalence.py`` asserts extensional
equality of every kernel against the tuple-set implementation.

Engine selection
----------------
These kernels are the default engine of
:func:`repro.algebra.evaluator.evaluate`; ``REPRO_ENGINE`` and an explicit
``engine=`` choose between them and the tuple reference
(:mod:`repro.storage.engine`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import EvaluationError, ExpressionError
from repro.algebra.conditions import (
    _OPS,
    And,
    AttributeRef,
    Comparison,
    Condition,
    Constant,
    FalseCondition,
    Not,
    Or,
    TrueCondition,
)
from repro.storage.relation import Relation

# Engine selection lives in the leaf module repro.storage.engine (no
# import cycle); re-exported here because "the columnar engine" is where
# callers naturally look for it.
from repro.storage.engine import (  # noqa: F401  (re-exports)
    DEFAULT_ENGINE,
    ENGINE_COLUMNAR,
    ENGINE_ENV,
    ENGINE_TUPLE,
    resolve_engine,
)

# ----------------------------------------------------------------------
# The process-wide dictionary (value interning pool)
# ----------------------------------------------------------------------

#: value -> code. Append-only; equal values share one code process-wide,
#: which is what lets every kernel compare codes instead of values.
_CODES: Dict[object, int] = {}
#: code -> value (the decode side of the dictionary).
_VALUES: List[object] = []

#: Sentinel code returned for values never interned (matches no real code).
_UNKNOWN = -1


def intern_value(value: object) -> int:
    """The dictionary code of ``value``, assigning a fresh one if new."""
    code = _CODES.get(value)
    if code is None:
        code = len(_VALUES)
        _CODES[value] = code
        _VALUES.append(value)
    return code


def dictionary_size() -> int:
    """Distinct values interned so far (a process-wide gauge)."""
    return len(_VALUES)


# ----------------------------------------------------------------------
# Kernel invocation counters (fed into ``evaluator.columnar.*`` metrics)
# ----------------------------------------------------------------------

KERNEL_CALLS: Dict[str, int] = {}


def _count(kernel: str) -> None:
    KERNEL_CALLS[kernel] = KERNEL_CALLS.get(kernel, 0) + 1


def kernel_totals() -> Dict[str, int]:
    """A snapshot of cumulative kernel invocation counts."""
    return dict(KERNEL_CALLS)


_NO_POSITIONS: Tuple[int, ...] = ()


def _group(keys: Sequence[object]) -> Dict[object, List[int]]:
    """Positions grouped by key — the hash side of a join.

    Built with a consumed comprehension: one C-level ``dict.setdefault``
    per key, no Python loop statement on the kernel path.
    """
    buckets: Dict[object, List[int]] = {}
    setdefault = buckets.setdefault
    [setdefault(key, []).append(position) for position, key in enumerate(keys)]
    return buckets


class ColumnarTable:
    """A relation as dictionary-coded columns (set semantics, immutable).

    Parameters
    ----------
    attributes:
        Attribute names, order-significant for column layout.
    columns:
        One code list per attribute, all the same length.
    live:
        Number of valid rows (equals the column length when ``valid`` is
        ``None``).
    valid:
        Optional row-validity bitmap (``bytearray`` of 0/1). ``None`` means
        every physical row is live. Kernels always densify first; the
        bitmap exists so facade-level delta patching can delete in
        O(delta).

    Invariant: the live rows are pairwise distinct (set semantics).
    """

    __slots__ = (
        "attributes",
        "columns",
        "valid",
        "_live",
        "_dense",
        "_positions",
        "_relation",
    )

    def __init__(
        self,
        attributes: Sequence[str],
        columns: Sequence[List[int]],
        live: int,
        valid: Optional[bytearray] = None,
    ) -> None:
        self.attributes = tuple(attributes)
        self.columns: Tuple[List[int], ...] = tuple(columns)
        self.valid = valid
        self._live = live
        self._dense: Optional["ColumnarTable"] = None
        self._positions: Optional[Dict[Tuple[int, ...], int]] = None
        self._relation: Optional[Relation] = None

    # ------------------------------------------------------------------
    # Facade: encode / decode / patch (row loops live here, nowhere else)
    # ------------------------------------------------------------------

    @classmethod
    def from_relation(cls, relation: Relation) -> "ColumnarTable":
        """Encode a tuple-set relation into dictionary-coded columns."""
        attrs = relation.attributes
        rows = list(relation.rows)
        if not attrs:
            table = cls(attrs, (), len(rows))
            table._relation = relation
            return table
        if not rows:
            table = cls(attrs, tuple([] for _ in attrs), 0)
            table._relation = relation
            return table
        codes = _CODES
        values = _VALUES
        columns: List[List[int]] = []
        for column_values in zip(*rows):
            column: List[int] = []
            append = column.append
            for value in column_values:
                code = codes.get(value)
                if code is None:
                    code = len(values)
                    codes[value] = code
                    values.append(value)
                append(code)
            columns.append(column)
        table = cls(attrs, tuple(columns), len(rows))
        table._relation = relation
        return table

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "ColumnarTable":
        """The empty table over ``attributes``."""
        attrs = tuple(attributes)
        return cls(attrs, tuple([] for _ in attrs), 0)

    def to_relation(self) -> Relation:
        """Late materialization: decode back to a tuple-set ``Relation``.

        The result is cached on the (dense) table and carries this table as
        its columnar twin, so repeated materialization of a cached
        sub-expression result is free and the twin survives into delta
        patching.
        """
        dense = self._as_dense()
        relation = dense._relation
        if relation is not None:
            return relation
        values = _VALUES
        if not dense.attributes:
            rows = frozenset([()]) if dense._live else frozenset()
        else:
            decoded = [[values[code] for code in column] for column in dense.columns]
            rows = frozenset(zip(*decoded))
        relation = Relation._raw(dense.attributes, rows)
        if relation._columnar is None:
            relation._columnar = dense
        dense._relation = relation
        return relation

    def patched(
        self,
        added_rows: Iterable[Sequence[object]],
        removed_rows: Iterable[Sequence[object]],
    ) -> "ColumnarTable":
        """Copy-on-patch: a new table with a row delta folded in.

        ``added_rows`` / ``removed_rows`` are value rows aligned to this
        table's attribute order (the shape ``Relation._derive_caches``
        passes). Deletions flip the validity bitmap (O(delta) after the
        position index is warm); insertions append. When more than half of
        the physical rows are dead the result is compacted.
        """
        attrs = self.attributes
        if not attrs:
            live = self._live
            live -= sum(1 for _ in removed_rows) if live else 0
            live = min(1, max(live, 0) + sum(1 for _ in added_rows))
            return ColumnarTable(attrs, (), live)
        total = len(self.columns[0])
        index = dict(self._ensure_positions())
        columns = [list(column) for column in self.columns]
        valid = (
            bytearray(self.valid)
            if self.valid is not None
            else bytearray(b"\x01" * total)
        )
        live = self._live
        codes = _CODES
        values = _VALUES
        for row in removed_rows:
            key = tuple(codes.get(value, _UNKNOWN) for value in row)
            position = index.pop(key, None)
            if position is not None and valid[position]:
                valid[position] = 0
                live -= 1
        for row in added_rows:
            key_list: List[int] = []
            for value in row:
                code = codes.get(value)
                if code is None:
                    code = len(values)
                    codes[value] = code
                    values.append(value)
                key_list.append(code)
            key = tuple(key_list)
            existing = index.get(key)
            if existing is not None and valid[existing]:
                continue
            for column, code in zip(columns, key):
                column.append(code)
            valid.append(1)
            index[key] = len(valid) - 1
            live += 1
        total = len(valid)
        if live == total:
            patched = ColumnarTable(attrs, tuple(columns), live)
            patched._positions = index
            return patched
        if live * 2 < total:
            keep = [i for i, flag in enumerate(valid) if flag]
            compacted = tuple([column[i] for i in keep] for column in columns)
            return ColumnarTable(attrs, compacted, live)
        patched = ColumnarTable(attrs, tuple(columns), live, valid)
        patched._positions = index
        return patched

    def _ensure_positions(self) -> Dict[Tuple[int, ...], int]:
        """The row-key -> physical-position index (built lazily, cached)."""
        positions = self._positions
        if positions is None:
            cols = self.columns
            if not cols:
                positions = {}
            elif self.valid is None:
                positions = dict(zip(zip(*cols), range(len(cols[0]))))
            else:
                valid = self.valid
                positions = {}
                for i, key in enumerate(zip(*cols)):
                    if valid[i]:
                        positions[key] = i
            self._positions = positions
        return positions

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def attribute_set(self) -> frozenset:
        """Attribute names as a frozen set."""
        return frozenset(self.attributes)

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return bool(self._live)

    def physical_rows(self) -> int:
        """Physical row slots, including bitmap-dead ones."""
        if not self.columns:
            return self._live
        return len(self.columns[0])

    def has_dead_rows(self) -> bool:
        """Whether a validity bitmap with dead rows is present."""
        return self.valid is not None and self._live != len(self.valid)

    def __repr__(self) -> str:
        dead = self.physical_rows() - self._live
        suffix = f", {dead} dead" if dead else ""
        return f"ColumnarTable({self.attributes}, {self._live} rows{suffix})"

    # ------------------------------------------------------------------
    # Dense view (kernels never see the bitmap)
    # ------------------------------------------------------------------

    def _as_dense(self) -> "ColumnarTable":
        """This table with dead rows dropped (cached; identity when clean)."""
        if self.valid is None:
            return self
        dense = self._dense
        if dense is None:
            if self._live == len(self.valid):
                dense = ColumnarTable(self.attributes, self.columns, self._live)
            else:
                valid = self.valid
                keep = [i for i, flag in enumerate(valid) if flag]
                columns = tuple([column[i] for i in keep] for column in self.columns)
                dense = ColumnarTable(self.attributes, columns, len(keep))
            self._dense = dense
        return dense

    def _take(self, positions: Sequence[int]) -> "ColumnarTable":
        """A new table of the given row positions (dense tables only)."""
        columns = tuple([column[i] for i in positions] for column in self.columns)
        return ColumnarTable(self.attributes, columns, len(positions))

    def _column(self, name: str) -> List[int]:
        try:
            return self.columns[self.attributes.index(name)]
        except ValueError:
            raise ExpressionError(
                f"condition attribute {name!r} not among {self.attributes}"
            ) from None

    def _row_keys(self) -> Sequence[object]:
        """One hashable key per row: the code itself for single columns,
        a code tuple otherwise (dense tables only)."""
        cols = self.columns
        if not cols:
            return [()] * self._live
        if len(cols) == 1:
            return cols[0]
        return list(zip(*cols))

    def _key_column(self, attrs: Sequence[str]) -> Sequence[object]:
        """Join keys over ``attrs`` (dense tables only; sorted-attr order)."""
        cols = [self.columns[self.attributes.index(a)] for a in attrs]
        if len(cols) == 1:
            return cols[0]
        return list(zip(*cols))

    def _aligned_to(self, target: "ColumnarTable") -> "ColumnarTable":
        """This table with columns re-laid-out in ``target``'s order."""
        dense = self._as_dense()
        if dense.attributes == target.attributes:
            return dense
        if frozenset(dense.attributes) != frozenset(target.attributes):
            raise ExpressionError(
                "attribute sets differ: "
                f"{sorted(target.attributes)} vs {sorted(dense.attributes)}"
            )
        index = dense.attributes.index
        columns = tuple(dense.columns[index(a)] for a in target.attributes)
        aligned = ColumnarTable(target.attributes, columns, dense._live)
        return aligned

    # ------------------------------------------------------------------
    # Kernels (batch-at-a-time; no per-row loop statements — rule C1)
    # ------------------------------------------------------------------

    def select(self, condition: Condition) -> "ColumnarTable":
        """Selection: predicate evaluation over dictionary codes.

        Equality against a constant is one dictionary probe plus an int
        filter; ordered comparisons are decided once per *distinct* code
        and rows are filtered by code membership.
        """
        _count("select")
        dense = self._as_dense()
        positions = _matching_positions(dense, condition)
        if positions is None:
            return dense
        return dense._take(sorted(positions))

    def project(self, attributes: Sequence[str]) -> "ColumnarTable":
        """Projection ``pi_Z`` (set semantics; dedupe via ``dict.fromkeys``)."""
        _count("project")
        dense = self._as_dense()
        attrs = tuple(attributes)
        missing = set(attrs) - set(dense.attributes)
        if missing:
            raise ExpressionError(
                f"cannot project onto {sorted(missing)}: not attributes of "
                f"{dense.attributes}"
            )
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in projection {attrs}")
        if attrs == dense.attributes:
            return dense
        index = dense.attributes.index
        cols = [dense.columns[index(a)] for a in attrs]
        if len(attrs) == len(dense.attributes):
            # A permutation: rows stay distinct, no dedupe needed.
            return ColumnarTable(attrs, tuple(cols), dense._live)
        if len(cols) == 1:
            unique = list(dict.fromkeys(cols[0]))
            return ColumnarTable(attrs, (unique,), len(unique))
        unique_rows = list(dict.fromkeys(zip(*cols)))
        if not unique_rows:
            return ColumnarTable.empty(attrs)
        columns = tuple(list(column) for column in zip(*unique_rows))
        return ColumnarTable(attrs, columns, len(unique_rows))

    def select_project(
        self, condition: Condition, attributes: Sequence[str]
    ) -> "ColumnarTable":
        """Fused ``pi_Z(sigma_c(e))`` in one pass (the compiler's kernel).

        The predicate is decided over dictionary codes exactly as in
        :meth:`select`, but instead of materializing the filtered table the
        surviving positions are gathered straight into the projected
        columns — the intermediate selection result is never built.
        """
        _count("select_project")
        dense = self._as_dense()
        attrs = tuple(attributes)
        missing = set(attrs) - set(dense.attributes)
        if missing:
            raise ExpressionError(
                f"cannot project onto {sorted(missing)}: not attributes of "
                f"{dense.attributes}"
            )
        if len(set(attrs)) != len(attrs):
            raise ExpressionError(f"duplicate attributes in projection {attrs}")
        positions = _matching_positions(dense, condition)
        if positions is None:
            return dense.project(attrs)
        taken = sorted(positions)
        index = dense.attributes.index
        cols = [dense.columns[index(a)] for a in attrs]
        if len(attrs) == len(dense.attributes):
            # A permutation: rows stay distinct, no dedupe needed.
            picked = tuple([column[i] for i in taken] for column in cols)
            return ColumnarTable(attrs, picked, len(taken))
        if len(cols) == 1:
            column = cols[0]
            unique = list(dict.fromkeys(column[i] for i in taken))
            return ColumnarTable(attrs, (unique,), len(unique))
        unique_rows = list(
            dict.fromkeys(tuple(column[i] for column in cols) for i in taken)
        )
        if not unique_rows:
            return ColumnarTable.empty(attrs)
        columns = tuple(list(column) for column in zip(*unique_rows))
        return ColumnarTable(attrs, columns, len(unique_rows))

    def rename(self, mapping: Mapping[str, str]) -> "ColumnarTable":
        """Attribute renaming (columns are shared, never copied)."""
        _count("rename")
        unknown = set(mapping) - set(self.attributes)
        if unknown:
            raise ExpressionError(
                f"cannot rename {sorted(unknown)}: not attributes of {self.attributes}"
            )
        new_attrs = tuple(mapping.get(a, a) for a in self.attributes)
        if len(set(new_attrs)) != len(new_attrs):
            raise ExpressionError(f"renaming {dict(mapping)} collides on {new_attrs}")
        renamed = ColumnarTable(new_attrs, self.columns, self._live, self.valid)
        return renamed

    def join(self, other: "ColumnarTable") -> "ColumnarTable":
        """Natural hash join on encoded key columns.

        Builds positional buckets on the smaller side, probes with the
        larger, then gathers output columns by position — value tuples are
        never formed. Single shared attributes use the raw code column as
        the key (no tuple allocation at all).
        """
        _count("join")
        left = self._as_dense()
        right = other._as_dense()
        lattrs, rattrs = left.attributes, right.attributes
        left_set = frozenset(lattrs)
        right_set = frozenset(rattrs)
        shared = tuple(a for a in lattrs if a in right_set)
        extras = tuple(a for a in rattrs if a not in left_set)
        out_attrs = lattrs + extras
        n_left, n_right = left._live, right._live
        if n_left == 0 or n_right == 0:
            return ColumnarTable.empty(out_attrs)
        if not shared:
            # Cartesian product (standard natural-join degeneration).
            left_idx: List[int] = [i for i in range(n_left) for _ in range(n_right)]
            right_idx: List[int] = list(range(n_right)) * n_left
        else:
            shared_sorted = tuple(sorted(shared))
            left_keys = left._key_column(shared_sorted)
            right_keys = right._key_column(shared_sorted)
            if n_left <= n_right:
                get = _group(left_keys).get
                left_idx = [j for k in right_keys for j in get(k, _NO_POSITIONS)]
                right_idx = [
                    i for i, k in enumerate(right_keys) for _ in get(k, _NO_POSITIONS)
                ]
            else:
                get = _group(right_keys).get
                left_idx = [
                    i for i, k in enumerate(left_keys) for _ in get(k, _NO_POSITIONS)
                ]
                right_idx = [j for k in left_keys for j in get(k, _NO_POSITIONS)]
        left_columns = [[column[i] for i in left_idx] for column in left.columns]
        rindex = rattrs.index
        right_columns = [
            [right.columns[rindex(a)][j] for j in right_idx] for a in extras
        ]
        return ColumnarTable(
            out_attrs, tuple(left_columns + right_columns), len(left_idx)
        )

    def semi_join(self, other: "ColumnarTable") -> "ColumnarTable":
        """Semi-join ``self ⋉ other`` on encoded keys (never materializes)."""
        _count("semi_join")
        left = self._as_dense()
        right = other._as_dense()
        shared = tuple(a for a in left.attributes if a in frozenset(right.attributes))
        if not shared:
            return left if right._live else left._take(())
        shared_sorted = tuple(sorted(shared))
        keys = set(right._key_column(shared_sorted))
        left_keys = left._key_column(shared_sorted)
        return left._take([i for i, k in enumerate(left_keys) if k in keys])

    def anti_join(self, other: "ColumnarTable") -> "ColumnarTable":
        """Anti-join ``self ▷ other`` on encoded keys."""
        _count("anti_join")
        left = self._as_dense()
        right = other._as_dense()
        shared = tuple(a for a in left.attributes if a in frozenset(right.attributes))
        if not shared:
            return left._take(()) if right._live else left
        shared_sorted = tuple(sorted(shared))
        keys = set(right._key_column(shared_sorted))
        left_keys = left._key_column(shared_sorted)
        return left._take([i for i, k in enumerate(left_keys) if k not in keys])

    def union(self, other: "ColumnarTable") -> "ColumnarTable":
        """Set union; an ineffective union returns ``self`` (identity)."""
        _count("union")
        left = self._as_dense()
        if not left.attributes:
            return left if left._live else other._as_dense()
        right = other._aligned_to(left)
        if right._live == 0:
            return left
        left_keys = left._row_keys()
        seen = set(left_keys)
        added = [k for k in dict.fromkeys(right._row_keys()) if k not in seen]
        if not added:
            return left
        if len(left.columns) == 1:
            column = left.columns[0] + added
            return ColumnarTable(left.attributes, (column,), len(column))
        extra_columns = list(zip(*added))
        columns = tuple(
            list(column) + list(extra)
            for column, extra in zip(left.columns, extra_columns)
        )
        return ColumnarTable(left.attributes, columns, left._live + len(added))

    def difference(self, other: "ColumnarTable") -> "ColumnarTable":
        """Set difference; an ineffective difference returns ``self``."""
        _count("difference")
        left = self._as_dense()
        if not left.attributes:
            right_zero = other._as_dense()
            return left._take(()) if (left._live and right_zero._live) else left
        right = other._aligned_to(left)
        if right._live == 0 or left._live == 0:
            return left
        doomed = set(right._row_keys())
        keep = [i for i, k in enumerate(left._row_keys()) if k not in doomed]
        if len(keep) == left._live:
            return left
        return left._take(keep)

    def intersection(self, other: "ColumnarTable") -> "ColumnarTable":
        """Set intersection; attribute sets must agree."""
        _count("intersection")
        left = self._as_dense()
        if not left.attributes:
            right_zero = other._as_dense()
            return left if (left._live and right_zero._live) else left._take(())
        right = other._aligned_to(left)
        wanted = set(right._row_keys())
        keep = [i for i, k in enumerate(left._row_keys()) if k in wanted]
        if len(keep) == left._live:
            return left
        return left._take(keep)


# ----------------------------------------------------------------------
# Predicate evaluation over dictionary codes
# ----------------------------------------------------------------------


def _matching_positions(
    table: ColumnarTable, condition: Condition
) -> Optional[Set[int]]:
    """Live row positions satisfying ``condition`` (``None`` means *all*).

    Boolean structure maps to set algebra over position sets; atomic
    comparisons are decided over dictionary codes (see
    :func:`_comparison_positions`).
    """
    if isinstance(condition, TrueCondition):
        return None
    if isinstance(condition, FalseCondition):
        return set()
    if isinstance(condition, Comparison):
        return _comparison_positions(table, condition)
    if isinstance(condition, And):
        parts = [_matching_positions(table, part) for part in condition.parts]
        narrowed = [part for part in parts if part is not None]
        if not narrowed:
            return None
        return set.intersection(*narrowed)
    if isinstance(condition, Or):
        parts = [_matching_positions(table, part) for part in condition.parts]
        if any(part is None for part in parts):
            return None
        return set.union(*parts)  # type: ignore[arg-type]
    if isinstance(condition, Not):
        inner = _matching_positions(table, condition.part)
        if inner is None:
            return set()
        return set(range(len(table))) - inner
    raise EvaluationError(
        f"unknown condition node {type(condition).__name__} in columnar select"
    )


def _comparison_positions(
    table: ColumnarTable, comparison: Comparison
) -> Optional[Set[int]]:
    """Positions satisfying one atomic comparison, via codes.

    ``attr = const`` is a single dictionary probe plus an int filter;
    ordered comparisons are evaluated once per distinct code (the
    dictionary-encoding win: cost scales with the column's cardinality,
    not its length). Comparison semantics — including the total-order
    fallback for mixed types — are exactly the tuple path's ``_OPS``.
    """
    left, op, right = comparison.left, comparison.op, comparison.right
    if isinstance(left, Constant) and isinstance(right, Constant):
        return None if _OPS[op](left.value, right.value) else set()
    if isinstance(left, Constant):
        return _comparison_positions(table, comparison.flipped())
    assert isinstance(left, AttributeRef)
    column = table._column(left.name)
    if isinstance(right, Constant):
        value = right.value
        if op == "=":
            code = _CODES.get(value)
            if code is None:
                return set()
            return {i for i, c in enumerate(column) if c == code}
        if op == "!=":
            code = _CODES.get(value)
            if code is None:
                return None
            return {i for i, c in enumerate(column) if c != code}
        compare = _OPS[op]
        values = _VALUES
        good = {c for c in set(column) if compare(values[c], value)}
        return {i for i, c in enumerate(column) if c in good}
    other = table._column(right.name)
    if op == "=":
        return {i for i, pair in enumerate(zip(column, other)) if pair[0] == pair[1]}
    if op == "!=":
        return {i for i, pair in enumerate(zip(column, other)) if pair[0] != pair[1]}
    compare = _OPS[op]
    values = _VALUES
    good = {
        pair
        for pair in set(zip(column, other))
        if compare(values[pair[0]], values[pair[1]])
    }
    return {i for i, pair in enumerate(zip(column, other)) if pair in good}
