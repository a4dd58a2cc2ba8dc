"""Timing probes around the program's public functions, for the traced pass.

The program is not edited and its own tracer (``enable_tracing``) stays off.
Instead each entry of :data:`PROBES` names a public function or method; at
:func:`install` it is rebound to a wrapper that records a span (name, start,
end, parent span, rows) into an in-memory list. Module-level functions are
rebound in every ``repro`` module that imported them by name, because
``from m import f`` copies the reference.

The current span lives in a :class:`~contextvars.ContextVar`:
``process_batch`` yields between shard refreshes, and with a plain stack the
spans of the reader task would become its children.

A probe whose target has gone (a later refactor renamed it) is reported in
``Installation.missing`` and its metrics stay empty. It never raises: changes
to ``src/`` may not be able to edit this directory.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from contextvars import ContextVar
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple


class Probe(NamedTuple):
    """``prefix`` names the layer metric family; ``target`` is dotted below the module."""

    prefix: str
    module: str
    target: str
    measure: Optional[str] = None  # key of MEASURES: what ``rows`` counts


def _delta_rows(deltas) -> int:
    return sum(len(d.inserts) + len(d.deletes) for d in deltas)


#: How a span's ``rows`` is taken from ``(args, result)``. Kernel probes count
#: input rows (the waste ratio's numerator); refresh probes count delta rows.
MEASURES: Dict[str, Callable[[tuple, object], int]] = {
    "self": lambda args, result: len(args[0]),
    "self+other": lambda args, result: len(args[0]) + len(args[1]),
    "arg1": lambda args, result: len(args[1]),
    "result": lambda args, result: len(result),
    "update_rows": lambda args, result: _delta_rows(result),
    "applied_rows": lambda args, result: _delta_rows(result[1].values()),
    "shard_rows": lambda args, result: _delta_rows(result.values()),
}

KERNELS_UNARY = ("select", "project", "select_project", "patched", "to_relation")
KERNELS_BINARY = ("join", "semi_join", "anti_join", "union", "difference")
KERNELS = (*KERNELS_BINARY, *KERNELS_UNARY, "from_relation")

_INTEGRATOR = "repro.integrator.async_integrator"
_SHARDING = "repro.core.sharding"
_WAREHOUSE = "repro.core.warehouse"
_MAINTENANCE = "repro.core.maintenance"
_COLUMNAR = "repro.storage.columnar"
_RELATION = "repro.storage.relation"
_RUNTIME = "repro.compiler.runtime"

PROBES: Tuple[Probe, ...] = (
    Probe("integrator.process_batch", _INTEGRATOR,
          "AsyncConcurrentIntegrator.process_batch", "arg1"),
    Probe("storage.update.compose", "repro.storage.update", "Update.compose"),
    Probe("core.sharding.split", _SHARDING, "ShardedWarehouse.split", "result"),
    Probe("core.sharding.apply_to_shard", _SHARDING,
          "ShardedWarehouse.apply_to_shard", "shard_rows"),
    Probe("core.sharding.commit", _SHARDING, "ShardedWarehouse.commit"),
    Probe("core.sharding.snapshot", _SHARDING, "ShardedWarehouse.snapshot"),
    Probe("core.sharding.snapshot", _SHARDING, "ShardedSnapshot.relation"),
    Probe("core.sharding.answer", _SHARDING, "ShardedWarehouse.answer"),
    Probe("core.warehouse.specify", _WAREHOUSE, "Warehouse.specify"),
    Probe("core.warehouse.specify", _SHARDING, "ShardedWarehouse.specify"),
    Probe("core.warehouse.initialize", _WAREHOUSE, "Warehouse.initialize"),
    Probe("core.warehouse.apply", _WAREHOUSE, "Warehouse.apply"),
    Probe("core.warehouse.answer", _WAREHOUSE, "Warehouse.answer"),
    Probe("core.warehouse.reconstruct", _WAREHOUSE, "Warehouse.reconstruct"),
    Probe("core.maintenance.normalize_update", _MAINTENANCE,
          "normalize_update", "update_rows"),
    Probe("core.maintenance.maintenance_expressions", _MAINTENANCE,
          "maintenance_expressions"),
    Probe("core.maintenance.refresh_state", _MAINTENANCE,
          "refresh_state", "applied_rows"),
    Probe("algebra.evaluator.evaluate", "repro.algebra.evaluator", "evaluate"),
    *(Probe(f"storage.columnar.{k}", _COLUMNAR, f"ColumnarTable.{k}", "self")
      for k in KERNELS_UNARY),
    *(Probe(f"storage.columnar.{k}", _COLUMNAR, f"ColumnarTable.{k}", "self+other")
      for k in KERNELS_BINARY),
    Probe("storage.columnar.from_relation", _COLUMNAR,
          "ColumnarTable.from_relation", "arg1"),
    Probe("storage.relation.union", _RELATION, "Relation.union"),
    Probe("storage.relation.difference", _RELATION, "Relation.difference"),
    Probe("storage.relation.project", _RELATION, "Relation.project"),
    Probe("storage.relation.join", _RELATION, "Relation.natural_join"),
    Probe("compiler.runtime.program_for", _RUNTIME, "RefreshCompiler.program_for"),
    Probe("compiler.runtime.refresh", _RUNTIME, "RefreshCompiler.refresh"),
    Probe("core.translation.translate_query", "repro.core.translation",
          "translate_query"),
    Probe("core.complement.complement_thm22", "repro.core.complement",
          "complement_thm22"),
    Probe("storage.snapshot.relation", "repro.storage.snapshot",
          "SnapshotView.relation"),
)


class Span:
    """One recorded call. ``parent`` is the enclosing span of the same task."""

    __slots__ = ("name", "start", "end", "parent", "rows")

    def __init__(self, name: str, start: float, parent: "Optional[Span]") -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.rows = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def root(self) -> "Span":
        """The top-level span of this unit of work (one batch, one query)."""
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Recorder:
    """The in-memory span list of one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.current: ContextVar[Optional[Span]] = ContextVar("span", default=None)

    def wrap(self, name: str, function: Callable, measure: Optional[str]) -> Callable:
        spans, current = self.spans, self.current
        count = MEASURES[measure] if measure else None

        def begin() -> Tuple[Span, object]:
            span = Span(name, perf_counter(), current.get())
            spans.append(span)
            return span, current.set(span)

        if inspect.iscoroutinefunction(function):
            @wraps(function)
            async def wrapper(*args, **kwargs):
                span, token = begin()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    current.reset(token)
                if count is not None:
                    span.rows = count(args, result)
                return result
        else:
            @wraps(function)
            def wrapper(*args, **kwargs):
                span, token = begin()
                try:
                    result = function(*args, **kwargs)
                finally:
                    span.end = perf_counter()
                    current.reset(token)
                if count is not None:
                    span.rows = count(args, result)
                return result
        return wrapper

    def write_jsonl(self, path: str) -> None:
        """One span per line: id, name, start, end, parent id, unit-of-work id."""
        ids = {id(span): number for number, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for number, span in enumerate(self.spans):
                parent = None if span.parent is None else ids[id(span.parent)]
                handle.write(json.dumps({
                    "id": number, "name": span.name, "start": span.start,
                    "end": span.end, "parent": parent,
                    "unit": ids[id(span.root())], "rows": span.rows,
                }) + "\n")


class Installation:
    """What :func:`install` rebound; :meth:`uninstall` puts it all back."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()


def install(recorder: Recorder, probes: Sequence[Probe] = PROBES) -> Installation:
    """Rebind every probe target to a recording wrapper."""
    installation = Installation()
    for probe in probes:
        try:
            module = importlib.import_module(probe.module)
            owner: object = module
            *path, name = probe.target.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = owner.__dict__[name]
        except (ImportError, AttributeError, KeyError):
            installation.missing.append(f"{probe.module}:{probe.target}")
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = recorder.wrap(probe.prefix, raw.__func__, probe.measure)
            installation._set(owner, name, type(raw)(wrapped))
            continue
        wrapped = recorder.wrap(probe.prefix, raw, probe.measure)
        installation._set(owner, name, wrapped)
        if owner is module:
            # ``from m import f`` elsewhere holds its own reference.
            for other_name, other in list(sys.modules.items()):
                if other is module or not other_name.startswith("repro"):
                    continue
                for alias, value in list(vars(other).items()):
                    if value is raw:
                        installation._set(other, alias, wrapped)
    return installation
