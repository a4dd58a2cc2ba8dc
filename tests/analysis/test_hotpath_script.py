"""Tests for ``scripts/check_hotpath.py`` (the hot-path AST lint).

Covers both rule sets: R1–R5 over the evaluators and C1/C2 over the
columnar kernel module (dispatched by filename).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).parents[2]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_hotpath", REPO / "scripts" / "check_hotpath.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKER = load_checker()


def violations_for(tmp_path, source, filename="candidate.py"):
    path = tmp_path / filename
    path.write_text(source)
    return CHECKER.check_file(str(path))


class TestRealTargets:
    def test_shipped_hot_paths_are_clean(self):
        for target in CHECKER.DEFAULT_TARGETS:
            assert CHECKER.check_file(str(target)) == [], target

    def test_default_targets_cover_both_engines(self):
        # One interpreter serves both engines; the kernels and the refresh
        # orchestration around it are targets too.
        names = {Path(str(t)).name for t in CHECKER.DEFAULT_TARGETS}
        assert {"evaluator.py", "columnar.py", "maintenance.py"} <= names
        # The nodes whose structural keys every memo and cache lookup takes.
        assert "expressions.py" in names
        # The patched inverse images every answer reads.
        assert "patch.py" in names
        # ... and so is everything under the one serving path.
        assert {"runtime.py", "translation.py", "hybrid.py"} <= names
        assert "columnar_eval.py" not in names

    def test_main_exit_codes(self, capsys):
        assert CHECKER.main([]) == 0
        assert "OK" in capsys.readouterr().out


class TestRules:
    def test_r1_span_outside_allowlist(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def _eval(expr, ctx):\n"
            "    with ctx.tracer.span('x'):\n"
            "        pass\n",
        )
        assert any("R1" in v for v in found)

    def test_r1_span_of_seam_allowed(self, tmp_path):
        # No function is exempt from R1 any more: the seam is the one way in.
        found = violations_for(
            tmp_path,
            "def _eval(expr, ctx):\n"
            "    with span_of(ctx.tracer, 'x') as span:\n"
            "        span.set(rows_out=1)\n",
        )
        assert found == []

    def test_r2_timing_calls(self, tmp_path):
        found = violations_for(
            tmp_path,
            "from time import perf_counter\n"
            "def f():\n"
            "    return perf_counter()\n",
        )
        assert any("R2" in v for v in found)

    def test_r3_unguarded_tracer_call(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def _natural_join(ctx):\n"
            "    ctx.tracer.annotate(rows=1)\n",
        )
        assert any("R3" in v for v in found)

    def test_r3_guarded_tracer_call_ok(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def _natural_join(ctx):\n"
            "    if ctx.tracer is not None:\n"
            "        ctx.tracer.annotate(rows=1)\n",
        )
        assert found == []

    def test_r3_guarded_call_inside_loop_ok(self, tmp_path):
        # The per-operand annotate in _eval_difference: guarded calls are
        # fine even inside loops; only *unguarded* ones are flagged.
        found = violations_for(
            tmp_path,
            "def _eval_difference(ctx, operands):\n"
            "    for index, operand in enumerate(operands):\n"
            "        if ctx.tracer is not None:\n"
            "            ctx.tracer.annotate(step=index)\n",
        )
        assert found == []

    def test_r4_span_reference(self, tmp_path):
        found = violations_for(
            tmp_path,
            "from repro.obs import Span\n"
            "def f():\n"
            "    return Span('x', 0.0)\n",
        )
        assert any("R4" in v for v in found)

    def test_r5_environ_read(self, tmp_path):
        found = violations_for(
            tmp_path,
            "import os\n"
            "def _eval(expr, ctx):\n"
            "    return os.environ.get('X')\n",
        )
        assert any("R5" in v for v in found)

    def test_r5_getenv_read(self, tmp_path):
        found = violations_for(
            tmp_path,
            "from os import getenv\n"
            "def _eval(expr, ctx):\n"
            "    return getenv('X')\n",
        )
        assert any("R5" in v for v in found)

    def test_r5_sanitizer_env_name(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def _eval(expr, ctx):\n"
            f"    flag = {CHECKER.SANITIZER_ENV!r}\n"
            "    return flag\n",
        )
        assert any("R5" in v for v in found)

    def test_main_reports_violations(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("import time\n")
        assert CHECKER.main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "R2" in out
        assert "violation" in out


class TestColumnarKernelRules:
    """C1/C2 apply only to files named ``columnar.py``."""

    def test_c1_loop_statement_in_kernel(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def select(self, cond):\n"
            "    out = []\n"
            "    for row in self.rows:\n"
            "        out.append(row)\n"
            "    return out\n",
            filename="columnar.py",
        )
        assert any("C1" in v for v in found)

    def test_c1_while_statement_in_kernel(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def join(left, right):\n"
            "    i = 0\n"
            "    while i < 10:\n"
            "        i += 1\n",
            filename="columnar.py",
        )
        assert any("C1" in v for v in found)

    def test_c1_comprehensions_allowed(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def select(self, cond):\n"
            "    return [c for c in self.columns if c]\n"
            "def join(left, right):\n"
            "    return {i for i, k in enumerate(left) if k in right}\n",
            filename="columnar.py",
        )
        assert found == []

    def test_c1_facade_methods_may_loop(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def from_relation(cls, relation):\n"
            "    for row in relation.rows:\n"
            "        pass\n"
            "def patched(self, added, removed):\n"
            "    for row in removed:\n"
            "        pass\n"
            "def _ensure_positions(self):\n"
            "    for i in range(3):\n"
            "        pass\n",
            filename="columnar.py",
        )
        assert found == []

    def test_c2_materialization_outside_facade(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def join(left, right):\n"
            "    return Relation._raw(left.attributes, set())\n"
            "def select(self, cond):\n"
            "    return self.to_relation()\n",
            filename="columnar.py",
        )
        assert sum("C2" in v for v in found) == 2

    def test_c2_facade_may_materialize(self, tmp_path):
        found = violations_for(
            tmp_path,
            "def to_relation(self):\n"
            "    return Relation._raw(self.attributes, frozenset())\n",
            filename="columnar.py",
        )
        assert found == []

    def test_evaluator_rules_not_applied_to_kernels(self, tmp_path):
        # The kernel module may mention REPRO_CHECK_INVARIANTS in
        # docstrings without tripping evaluator rule R5.
        found = violations_for(
            tmp_path,
            "def select(self, cond):\n"
            "    return [c for c in self.columns]\n",
            filename="columnar.py",
        )
        assert found == []
