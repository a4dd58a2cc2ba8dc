#!/usr/bin/env python
"""AST lint for the engines' hot paths (interpreter, kernels, refresh plans).

Two rule sets, dispatched per file:

**Evaluator rules** (the interpreter ``src/repro/algebra/evaluator.py``,
the refresh orchestration ``repro/core/maintenance.py``, the plan
modules ``repro/compiler/{fuse,runtime}.py``, the query-translation
serving path ``repro/core/translation.py``, and the hybrid warehouse's
state hooks ``repro/core/hybrid.py``). Each of
these runs once per operator, per refresh or per answer, with tracing
normally off, and must then cost nothing for observability: no ``Span``
objects, no timing calls, no unguarded tracer method calls. Every
instrumented site is written once and opens its span through the seam
``repro.obs.trace.span_of(tracer, ...)``, which returns one shared
do-nothing span for ``tracer=None``. These rules enforce that invariant
structurally so a refactor cannot quietly put span construction back on
the hot path.

R1  No literal ``*.span(...)`` call: spans are opened through
    ``span_of`` only, so a site cannot build a ``Span`` — or grow a
    second, traced copy of itself — while tracing is off.
R2  No references to ``perf_counter``, ``monotonic``, ``time`` or
    ``datetime``: the engine itself never reads clocks; timing lives
    in ``repro.obs`` behind the tracer.
R3  Any ``*.tracer.method(...)`` call must be lexically inside an
    ``if <obj>.tracer is not None`` guard, so the ``tracer=None``
    default never pays an attribute lookup on a dead branch. (Guarded
    calls inside loops are fine.)
R4  The name ``Span`` must not be referenced at all: the engine
    receives spans only through the seam's context manager.
R5  No environment reads: ``environ``/``getenv`` (and the sanitizer
    variable names ``REPRO_CHECK_INVARIANTS`` / ``REPRO_CHECK_QUERIES``
    / ``REPRO_CHECK_RACES``) must never appear — the sanitizer flags are
    read once per warehouse construction, and the engine default once at
    ``repro.storage.engine`` import, never per-operator.

**Columnar kernel rules** (``src/repro/storage/columnar.py``). The
batch kernels exist to replace per-row Python interpretation with
C-level primitives (comprehensions, ``zip``, ``set``/``dict`` algebra);
a ``for`` statement over rows would silently give that back.

C1  No ``for``/``while`` *statements* in kernel code — comprehensions
    and generator expressions are the batch idiom and stay allowed.
    Facade methods that bridge to/from the tuple world
    (``from_relation``, ``patched``, ``_ensure_positions``) are
    allowlisted: they run once per table build/patch, not per operator.
C2  Tuple materialization (``Relation._raw``/``Relation(...)``
    construction, ``*.to_relation()`` calls) may appear only at the API
    boundary (``to_relation``, ``from_relation``) — kernels must stay
    code-space end to end; late materialization is the contract.

Exit status: 0 when clean, 1 with one violation per line otherwise.
Usage: ``python scripts/check_hotpath.py [FILE ...]``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

TIMING_NAMES = frozenset({"perf_counter", "monotonic", "time", "datetime"})
ENVIRON_NAMES = frozenset({"environ", "getenv"})
SANITIZER_ENVS = frozenset(
    {"REPRO_CHECK_INVARIANTS", "REPRO_CHECK_QUERIES", "REPRO_CHECK_RACES"}
)

#: Columnar facade methods allowed to loop row-at-a-time (C1): they run
#: once per build/patch on delta-sized inputs, not inside operator trees.
LOOP_ALLOWLIST = frozenset({"from_relation", "patched", "_ensure_positions"})
#: Columnar methods allowed to touch tuple-world ``Relation`` objects (C2).
MATERIALIZE_ALLOWLIST = frozenset({"to_relation", "from_relation"})

_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = (
    _ROOT / "src" / "repro" / "algebra" / "evaluator.py",
    _ROOT / "src" / "repro" / "storage" / "columnar.py",
    # Orchestration of every refresh (normalize, maintain).
    _ROOT / "src" / "repro" / "core" / "maintenance.py",
    # What every refresh runs: plan derivation/fusion and the per-spec
    # plan cache, under the same no-clock/no-env/seam-only-span rules.
    # (repro/compiler/certificate.py is off the refresh path: it backs
    # the offline ``python -m repro compile`` only.)
    _ROOT / "src" / "repro" / "compiler" / "fuse.py",
    _ROOT / "src" / "repro" / "compiler" / "runtime.py",
    # The query-translation serving path: the one answer body runs per
    # answer() call and must never read clocks or the environment, and
    # opens its span through the seam — the REPRO_CHECK_QUERIES wiring
    # lives in repro.core.warehouse.
    _ROOT / "src" / "repro" / "core" / "translation.py",
    # The state hooks a HybridWarehouse puts under every answer, refresh
    # and commit of the one serving path in repro.core.warehouse.
    _ROOT / "src" / "repro" / "core" / "hybrid.py",
)


def _is_tracer_guard(test: ast.expr) -> bool:
    """True for ``<expr>.tracer is not None`` (or ``is None``, for else-guards)."""
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Attribute)
        and test.left.attr == "tracer"
        and len(test.ops) == 1
        and isinstance(test.ops[0], (ast.Is, ast.IsNot))
        and len(test.comparators) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    )


def _is_tracer_call(node: ast.Call) -> bool:
    """True for ``<expr>.tracer.method(...)``."""
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Attribute)
        and func.value.attr == "tracer"
    )


class _HotPathChecker(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[str] = []
        self._function = "<module>"
        self._guard_depth = 0

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.violations.append(f"{self.path}:{line}: {rule}: {message}")

    # -- scope tracking -------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        previous = self._function
        self._function = node.name
        self.generic_visit(node)
        self._function = previous

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        if _is_tracer_guard(node.test):
            self._guard_depth += 1
            for child in node.body:
                self.visit(child)
            for child in node.orelse:
                self.visit(child)
            self._guard_depth -= 1
        else:
            for child in node.body + node.orelse:
                self.visit(child)

    # -- rules ----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "span":
            self._report(
                node,
                "R1",
                f"span() call in '{self._function}' — open spans through "
                "repro.obs.trace.span_of(tracer, ...)",
            )
        elif _is_tracer_call(node):
            if not self._guard_depth:
                self._report(
                    node,
                    "R3",
                    f"unguarded tracer call in '{self._function}' — wrap in "
                    "'if <obj>.tracer is not None'",
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id in TIMING_NAMES:
            self._report(node, "R2", f"timing name '{node.id}' on the hot path")
        elif node.id == "Span":
            self._report(node, "R4", "'Span' referenced in the evaluator")
        elif node.id in ENVIRON_NAMES:
            self._report(
                node, "R5", f"environment read '{node.id}' on the hot path"
            )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in TIMING_NAMES:
            self._report(node, "R2", f"timing attribute '.{node.attr}' on the hot path")
        elif node.attr in ENVIRON_NAMES:
            self._report(
                node, "R5", f"environment read '.{node.attr}' on the hot path"
            )
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        if node.value in SANITIZER_ENVS:
            self._report(
                node,
                "R5",
                f"'{node.value}' mentioned in the evaluator — the "
                "sanitizer flags are read once per Warehouse, never here",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if alias.name == "Span":
                self._report(node, "R4", "'Span' imported into the evaluator")
            if alias.name in TIMING_NAMES:
                self._report(node, "R2", f"timing import '{alias.name}'")

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name.split(".")[0] in TIMING_NAMES:
                self._report(node, "R2", f"timing import '{alias.name}'")


class _ColumnarKernelChecker(ast.NodeVisitor):
    """C1/C2 over the columnar kernel module."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.violations: List[str] = []
        self._function = "<module>"

    def _report(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        self.violations.append(f"{self.path}:{line}: {rule}: {message}")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        previous = self._function
        self._function = node.name
        self.generic_visit(node)
        self._function = previous

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def _check_loop(self, node: ast.AST) -> None:
        if self._function not in LOOP_ALLOWLIST:
            self._report(
                node,
                "C1",
                f"per-row loop statement in '{self._function}' — kernels must "
                f"use comprehensions/set algebra; loops are allowed only in "
                f"{sorted(LOOP_ALLOWLIST)}",
            )
        self.generic_visit(node)

    visit_For = _check_loop
    visit_While = _check_loop
    visit_AsyncFor = _check_loop

    def _check_materialization(self, node: ast.AST, what: str) -> None:
        if self._function not in MATERIALIZE_ALLOWLIST:
            self._report(
                node,
                "C2",
                f"{what} in '{self._function}' — tuple materialization is "
                f"allowed only in {sorted(MATERIALIZE_ALLOWLIST)}",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "Relation":
            self._check_materialization(node, "Relation(...) construction")
        elif isinstance(func, ast.Attribute):
            if func.attr == "to_relation":
                self._check_materialization(node, "to_relation() call")
            elif func.attr == "_raw" and (
                isinstance(func.value, ast.Name) and func.value.id == "Relation"
            ):
                self._check_materialization(node, "Relation._raw(...) call")
        self.generic_visit(node)


def _checker_for(path: str):
    if Path(path).name == "columnar.py":
        return _ColumnarKernelChecker(path)
    return _HotPathChecker(path)


def check_file(path: str) -> List[str]:
    """Check one file; returns a list of ``path:line: rule: message`` strings."""
    source = Path(path).read_text()
    tree = ast.parse(source, filename=str(path))
    checker = _checker_for(str(path))
    checker.visit(tree)
    return checker.violations


def main(argv: List[str]) -> int:
    targets = argv or [str(target) for target in DEFAULT_TARGETS]
    violations: List[str] = []
    for target in targets:
        violations.extend(check_file(target))
    for violation in violations:
        print(violation)
    if violations:
        print(f"check_hotpath: {len(violations)} violation(s)")
        return 1
    print(f"check_hotpath: OK ({len(targets)} file(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
