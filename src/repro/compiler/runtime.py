"""Compiled refresh closures: specialized, certificate-trusting execution.

Where the interpreter walks the maintenance ASTs on every refresh —
re-dispatching on node types, re-hashing memo keys, re-deciding fast
paths — the runtime here walks each AST **once**, at compile time, and
emits a tree of plain Python closures over the columnar kernels
(:class:`repro.storage.columnar.ColumnarTable`). All per-refresh work is
then closure calls and kernel calls:

* structural decisions (semi-join and Prop 2.2 anti-join recognition,
  ``pi(sigma(e))`` fusion into the single-pass ``select_project`` kernel,
  empty-branch short-circuit layout) happen at compile time;
* common sub-expressions are resolved at compile time into shared *frame
  slots* — one list index per distinct sub-expression, filled at most
  once per refresh;
* delta-free sub-expressions additionally carry a cross-refresh cell:
  if every input relation is the identical object as last time, the held
  result is reused — the compiled analogue of the interpreter's
  :class:`~repro.algebra.evaluator.EvaluationCache`.

:class:`RefreshCompiler` is the per-spec entry point: it certifies the
spec (:func:`repro.compiler.certificate.certify` — no PROVED certificate,
no compilation), compiles the Equation (4) inverses for update
normalization, and caches one :class:`CompiledRefresh` per update shape.
:meth:`RefreshCompiler.refresh` is a drop-in replacement for
:func:`repro.core.maintenance.refresh_state`: same ``(new_state,
applied)`` contract, including the keep-the-identical-object rule for
untouched relations.

This module is a ``scripts/check_hotpath.py`` target: it reads no clocks
and no environment, and opens spans only through
:func:`repro.obs.trace.span_of` (nothing is built under ``tracer=None``).
A traced compiled refresh emits the interpreter's ``normalize_update`` /
``reconstruct`` / ``maintain`` / ``read`` span vocabulary, so
``Warehouse.explain()`` and the ``REPRO_CHECK_INVARIANTS`` sanitizer work
unchanged on compiled refreshes.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from repro.errors import CompileError, WarehouseError
from repro.algebra.evaluator import anti_join_partner, semi_join_side
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Scope,
    Select,
    Union,
)
from repro.obs.trace import span_of
from repro.storage.columnar import ColumnarTable
from repro.storage.relation import Relation
from repro.storage.update import Delta, Update
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import State, delta_bindings
from repro.compiler.certificate import TrustedCertificate, certify
from repro.compiler.fuse import fused_inverses, fused_plan, new_value_name

#: A compiled sub-expression: ``(env, frame) -> ColumnarTable``.
TableFn = Callable[[Dict[str, Relation], List[object]], ColumnarTable]
#: A compiled root: ``(env, frame) -> Relation``.
RootFn = Callable[[Dict[str, Relation], List[object]], Relation]


class _Cell:
    """Cross-refresh memo for one delta-free sub-expression.

    ``inputs`` snapshots the input relation objects at fill time; the
    held ``value`` is valid exactly while every input is *identical* (by
    ``is``) — the same staleness rule the interpreter's persistent cache
    uses, made safe by ``refresh_state``'s keep-identity contract for
    untouched relations.
    """

    __slots__ = ("inputs", "value")

    def __init__(self) -> None:
        self.inputs: Optional[Tuple[Relation, ...]] = None
        self.value: Optional[ColumnarTable] = None


class _Builder:
    """Compiles expressions to closures, sharing frame slots via CSE.

    ``cells`` is an optional cross-builder registry of the delta-free
    memo cells, keyed by expression key: when the inverse runners and
    every per-shape program share one registry, a reconstruction
    computed during update normalization is reused by the maintenance
    program of the same refresh (and vice versa) instead of being
    recomputed from scratch.
    """

    def __init__(
        self,
        scope: Scope,
        delta_names: FrozenSet[str],
        cells: Optional[Dict[tuple, "_Cell"]] = None,
    ) -> None:
        self.scope = scope
        self.delta_names = delta_names
        self.cells = {} if cells is None else cells
        self.size = 0  # number of frame slots allocated so far
        self._compiled: Dict[tuple, Tuple[TableFn, FrozenSet[str]]] = {}

    def compile(self, expr: Expression) -> Tuple[TableFn, FrozenSet[str]]:
        """The closure and relation-name dependency set for ``expr``."""
        key = expr._key()
        hit = self._compiled.get(key)
        if hit is not None:
            return hit
        built = self._build(expr)
        self._compiled[key] = built
        return built

    def _memoize(
        self, compute: TableFn, deps: FrozenSet[str], key: tuple
    ) -> Tuple[TableFn, FrozenSet[str]]:
        slot = self.size
        self.size += 1
        names = tuple(sorted(deps))
        if names and not (deps & self.delta_names):
            cell = self.cells.setdefault(key, _Cell())

            def fn(env, frame):
                value = frame[slot]
                if value is not None:
                    return value
                held = cell.inputs
                if held is not None and all(
                    env[name] is source for name, source in zip(names, held)
                ):
                    value = cell.value
                else:
                    value = compute(env, frame)
                    cell.inputs = tuple(env[name] for name in names)
                    cell.value = value
                frame[slot] = value
                return value

        else:

            def fn(env, frame):
                value = frame[slot]
                if value is None:
                    value = compute(env, frame)
                    frame[slot] = value
                return value

        return fn, deps

    def _build(self, expr: Expression) -> Tuple[TableFn, FrozenSet[str]]:
        key = expr._key()
        if isinstance(expr, RelationRef):
            name = expr.name
            if name not in self.scope:
                raise CompileError(
                    f"compiled plan references unknown relation {name!r}"
                )

            def compute(env, frame):
                return env[name].columnar()

            return self._memoize(compute, frozenset((name,)), key)

        if isinstance(expr, Empty):
            constant = ColumnarTable.empty(expr.attrs)

            def constant_fn(env, frame):
                return constant

            return constant_fn, frozenset()

        if isinstance(expr, Select):
            child_fn, deps = self.compile(expr.child)
            condition = expr.condition

            def compute(env, frame):
                return child_fn(env, frame).select(condition)

            return self._memoize(compute, deps, key)

        if isinstance(expr, Project):
            return self._build_project(expr)

        if isinstance(expr, Join):
            left_fn, left_deps = self.compile(expr.left)
            right_fn, right_deps = self.compile(expr.right)
            empty = ColumnarTable.empty(expr.attributes(self.scope))

            def compute(env, frame):
                left = left_fn(env, frame)
                if not left:
                    return empty
                right = right_fn(env, frame)
                if not right:
                    return empty
                return left.join(right)

            return self._memoize(compute, left_deps | right_deps, key)

        if isinstance(expr, Union):
            left_fn, left_deps = self.compile(expr.left)
            right_fn, right_deps = self.compile(expr.right)

            def compute(env, frame):
                return left_fn(env, frame).union(right_fn(env, frame))

            return self._memoize(compute, left_deps | right_deps, key)

        if isinstance(expr, Difference):
            return self._build_difference(expr)

        if isinstance(expr, Rename):
            child_fn, deps = self.compile(expr.child)
            mapping = dict(expr.mapping)

            def compute(env, frame):
                return child_fn(env, frame).rename(mapping)

            return self._memoize(compute, deps, key)

        raise CompileError(f"cannot compile {type(expr).__name__} nodes")

    def _build_project(self, expr: Project) -> Tuple[TableFn, FrozenSet[str]]:
        key = expr._key()
        child = expr.child
        attrs = expr.attrs
        if isinstance(child, Join):
            # The semi-join fast path the interpreter decides per
            # evaluation, here decided once at compile time.
            side = semi_join_side(
                attrs,
                child.left.attribute_set(self.scope),
                child.right.attribute_set(self.scope),
            )
            if side is not None:
                sides = (child.left, child.right)
                keep_fn, keep_deps = self.compile(sides[side])
                other_fn, other_deps = self.compile(sides[1 - side])
                empty = ColumnarTable.empty(attrs)

                def compute(env, frame):
                    keep = keep_fn(env, frame)
                    if not keep:
                        return empty
                    other = other_fn(env, frame)
                    if not other:
                        return empty
                    return keep.semi_join(other).project(attrs)

                return self._memoize(compute, keep_deps | other_deps, key)
        if isinstance(child, Select):
            # The chain pi_Z(sigma_c(e)) runs as the fused single-pass
            # select_project kernel: matching rows are gathered straight
            # into the projected columns.
            grand_fn, deps = self.compile(child.child)
            condition = child.condition

            def compute(env, frame):
                return grand_fn(env, frame).select_project(condition, attrs)

            return self._memoize(compute, deps, key)
        if isinstance(child, RelationRef):
            # pi_A over a bound relation runs in tuple world:
            # Relation.project keeps a per-relation projection cache that
            # delta-sized insert patches carry forward (so re-projecting a
            # patched warehouse relation is O(delta)), and the columnar
            # encode is patched from the previously held table instead of
            # being rebuilt whenever the row diff is small.
            name = child.name
            holder: List[object] = [None, None]  # (row set, encoded table)

            def compute(env, frame):
                projected = env[name].project(attrs)
                rows = projected.rows
                held_rows, held_table = holder
                if held_rows:
                    added = rows - held_rows
                    removed = held_rows - rows
                    if (len(added) + len(removed)) * 4 <= len(held_rows):
                        table = held_table.patched(added, removed)
                    else:
                        table = projected.columnar()
                else:
                    table = projected.columnar()
                holder[0] = rows
                holder[1] = table
                return table

            return self._memoize(compute, frozenset((name,)), key)
        child_fn, deps = self.compile(child)

        def compute(env, frame):
            return child_fn(env, frame).project(attrs)

        return self._memoize(compute, deps, key)

    def _build_difference(
        self, expr: Difference
    ) -> Tuple[TableFn, FrozenSet[str]]:
        key = expr._key()
        left_fn, left_deps = self.compile(expr.left)
        # Proposition 2.2's complement shape as a hash anti-join.
        partner = anti_join_partner(expr, expr.left.attribute_set(self.scope))
        if partner is not None:
            other_fn, other_deps = self.compile(partner)

            def compute(env, frame):
                keep = left_fn(env, frame)
                if not keep:
                    return keep
                return keep.anti_join(other_fn(env, frame))

            return self._memoize(compute, left_deps | other_deps, key)
        right_fn, right_deps = self.compile(expr.right)

        def compute(env, frame):
            keep = left_fn(env, frame)
            if not keep:
                return keep
            return keep.difference(right_fn(env, frame))

        return self._memoize(compute, left_deps | right_deps, key)


def _root_runner(
    expr: Expression, builder: _Builder
) -> Tuple[RootFn, FrozenSet[str]]:
    """A closure producing a tuple-world ``Relation`` for a plan root.

    Bare relation references return the bound object itself (identity
    matters: a ``patch`` program's inserts *are* the delta binding), a
    constant ``Empty`` root returns one shared empty relation, and
    everything else late-materializes the compiled table.
    """
    if isinstance(expr, RelationRef):
        name = expr.name

        def ref_fn(env, frame):
            return env[name]

        return ref_fn, frozenset((name,))
    if isinstance(expr, Empty):
        constant = Relation.empty(expr.attrs)

        def empty_fn(env, frame):
            return constant

        return empty_fn, frozenset()
    table_fn, deps = builder.compile(expr)

    def fn(env, frame):
        return table_fn(env, frame).to_relation()

    return fn, deps


class _Maintainer(NamedTuple):
    """One warehouse relation's compiled maintenance entry."""

    name: str
    new_name: str  # the "<name>__new" binding later entries may read
    kind: str
    inserts: Optional[RootFn]
    deletes: Optional[RootFn]
    reads: Tuple[str, ...]  # relation/delta names (for traced read spans)


class CompiledRefresh:
    """One update shape's refresh, compiled to fused closures.

    Replicates the exact :func:`repro.core.maintenance.refresh_state`
    contract for an already-normalized (effective) update: per-relation
    ``(w − deletes) ∪ inserts`` patching, ``applied`` deltas only for
    actually-touched relations, identical objects carried over otherwise.
    """

    __slots__ = ("updated", "digest", "plan", "source_scope", "entries", "size")

    def __init__(
        self,
        spec: WarehouseSpec,
        updated: FrozenSet[str],
        digest: str,
        mode: str = "mixed",
        cells: Optional[Dict[tuple, _Cell]] = None,
    ) -> None:
        plan = fused_plan(
            spec,
            updated,
            insert_only=(mode == "insert-only"),
            delete_only=(mode == "delete-only"),
        )
        builder = _Builder(plan.scope, plan.delta_names, cells)
        entries = []
        for program in plan.relations:
            new_name = new_value_name(program.name)
            if program.kind == "pruned":
                entries.append(
                    _Maintainer(program.name, new_name, program.kind, None, None, ())
                )
                continue
            inserts, ins_deps = _root_runner(program.inserts, builder)
            deletes, del_deps = _root_runner(program.deletes, builder)
            reads = tuple(sorted(ins_deps | del_deps))
            entries.append(
                _Maintainer(
                    program.name, new_name, program.kind, inserts, deletes, reads
                )
            )
        self.updated = plan.updated
        self.digest = digest
        self.plan = plan
        self.source_scope = dict(spec.source_scope())
        self.entries = tuple(entries)
        self.size = builder.size

    def run(
        self, state: State, effective: Update, tracer=None
    ) -> Tuple[Dict[str, Relation], Dict[str, Delta]]:
        """Apply an effective update; returns ``(new_state, applied)``."""
        env: Dict[str, Relation] = dict(state)
        env.update(delta_bindings(effective, self.source_scope))
        frame: List[object] = [None] * self.size
        new_state: Dict[str, Relation] = {}
        applied: Dict[str, Delta] = {}
        for entry in self.entries:
            current = state[entry.name]
            if entry.kind == "pruned":
                new_state[entry.name] = current
                env[entry.new_name] = current
                continue
            with span_of(
                tracer, "maintain", relation=entry.name, engine="compiled"
            ) as span:
                if tracer is not None:
                    # Closures have no per-operator spans; the read set the
                    # sanitizer and explain() look for is emitted up front.
                    for name in entry.reads:
                        with span_of(
                            tracer, "read", relation=name, engine="compiled"
                        ):
                            pass
                inserts = entry.inserts(env, frame)
                deletes = entry.deletes(env, frame)
                span.set(
                    rows_inserted=len(inserts),
                    rows_deleted=len(deletes),
                    kind=entry.kind,
                )
            if inserts or deletes:
                value = current.difference(deletes).union(inserts)
                applied[entry.name] = Delta(
                    entry.name, inserts=inserts, deletes=deletes
                )
            else:
                value = current
            new_state[entry.name] = value
            env[entry.new_name] = value
        return new_state, applied


class RefreshCompiler:
    """Per-spec compiler: certificate anchor plus per-shape plan cache.

    Construction certifies the spec (raising
    :class:`~repro.errors.CompileError` unless the prover's certificate
    validates and every read set is empty) and eagerly compiles the
    Equation (4) inverses used for update normalization. Refresh programs
    are compiled lazily, one per update shape, and cached until the
    certificate digest changes.

    The ``compiles`` / ``plan_hits`` / ``refreshes`` counters are plain
    ints (this module keeps clocks and metrics off the hot path); the
    warehouse drains them into its ``compiler.*`` metrics after each
    apply.
    """

    __slots__ = (
        "spec",
        "certificate",
        "compiles",
        "plan_hits",
        "refreshes",
        "_programs",
        "_inverses",
        "_inverse_size",
        "_cells",
    )

    @staticmethod
    def _mode(effective: Update) -> str:
        has_inserts = any(len(delta.inserts) for delta in effective)
        has_deletes = any(len(delta.deletes) for delta in effective)
        if has_inserts and not has_deletes:
            return "insert-only"
        if has_deletes and not has_inserts:
            return "delete-only"
        return "mixed"

    def __init__(
        self,
        spec: WarehouseSpec,
        certificate: Optional[TrustedCertificate] = None,
    ) -> None:
        if certificate is None:
            certificate = certify(spec)
        self.spec = spec
        self.certificate = certificate
        self.compiles = 0
        self.plan_hits = 0
        self.refreshes = 0
        self._programs: Dict[Tuple[FrozenSet[str], str], CompiledRefresh] = {}
        self._cells: Dict[tuple, _Cell] = {}
        builder = _Builder(dict(spec.warehouse_scope()), frozenset(), self._cells)
        inverses: Dict[str, RootFn] = {}
        for name, expression in fused_inverses(spec).items():
            runner, _ = _root_runner(expression, builder)
            inverses[name] = runner
        self._inverses = inverses
        self._inverse_size = builder.size

    @property
    def digest(self) -> str:
        """The trusted certificate's cache digest."""
        return self.certificate.digest

    @property
    def plan_count(self) -> int:
        """Number of (update shape, side mask) pairs with a cached program."""
        return len(self._programs)

    def cached_shapes(self) -> List[FrozenSet[str]]:
        """The update shapes currently compiled (for tests/inspection)."""
        return sorted({updated for updated, _ in self._programs}, key=sorted)

    def program_for(
        self, updated: FrozenSet[str], mode: str = "mixed"
    ) -> CompiledRefresh:
        """The compiled program for one update shape and side mask.

        Plans are specialized per ``mode`` (``"mixed"``,
        ``"insert-only"``, ``"delete-only"``) as well as per shape:
        one-sided updates get the Example 4.1 compact forms with the
        unused delta branch pruned at compile time. Compiles on miss.
        """
        key = (updated, mode)
        program = self._programs.get(key)
        if program is None:
            program = CompiledRefresh(
                self.spec, updated, self.certificate.digest, mode, self._cells
            )
            self._programs[key] = program
            self.compiles += 1
        else:
            self.plan_hits += 1
        return program

    def refresh(
        self, state: State, update: Update, tracer=None
    ) -> Tuple[Dict[str, Relation], Dict[str, Delta]]:
        """Drop-in for :func:`~repro.core.maintenance.refresh_state`."""
        self.refreshes += 1
        frame: List[object] = [None] * self._inverse_size
        reconstructed: Dict[str, Relation] = {}
        with span_of(
            tracer,
            "normalize_update",
            relations=sorted(update.relations()),
            engine="compiled",
        ) as span:
            for delta in update:
                runner = self._inverses.get(delta.relation)
                if runner is None:
                    raise WarehouseError(
                        f"update touches unknown relation {delta.relation!r}"
                    )
                with span_of(tracer, "reconstruct", relation=delta.relation) as inner:
                    result = runner(state, frame)
                    inner.set(rows_out=len(result))
                reconstructed[delta.relation] = result
            effective = update.normalized(reconstructed)
            span.set(
                effective_rows=sum(len(d.inserts) + len(d.deletes) for d in effective)
            )
        if effective.is_empty():
            return dict(state), {}
        program = self.program_for(
            frozenset(effective.relations()), self._mode(effective)
        )
        return program.run(state, effective, tracer)
