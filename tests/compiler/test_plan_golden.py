"""The benchmark spec's refresh and query plans, pinned byte for byte.

The TPC-D spec the benchmark suite runs (``tpcd_catalog()`` with
``standard_views()``) is derived here once, and the golden records, line
for line:

* ``fused_plan(...).describe()`` for every single-relation update shape
  under each side mask;
* for each query template of ``tests/core/test_answer_path_golden.py``,
  the plan an answer runs (``answer_plan``) and the optimized translation
  (``translate_query(optimized=True)``).

A change to the rewriters (:mod:`repro.algebra.simplify`,
:mod:`repro.algebra.optimize`) or to the plan compiler shows up here as a
changed line. Regenerate with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/compiler/test_plan_golden.py
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import parse, specify
from repro.compiler import fused_plan
from repro.core.translation import answer_plan, translate_query
from repro.workloads.tpcd import standard_views, tpcd_catalog

from tests.core.test_answer_path_golden import TEMPLATES

GOLDEN = Path(__file__).parent / "golden" / "tpcd_plans.txt"

MASKS = {
    "mixed": {},
    "insert-only": {"insert_only": True},
    "delete-only": {"delete_only": True},
}


def test_tpcd_plans_match_the_golden():
    spec = specify(tpcd_catalog(), standard_views())
    lines = []
    for relation in sorted(spec.catalog.relation_names()):
        for mask, flags in MASKS.items():
            lines.append(f"== refresh {relation} {mask}")
            lines.append(fused_plan(spec, {relation}, **flags).describe())
    for template, text in TEMPLATES.items():
        query = parse(text)
        lines.append(f"== answer_plan {template}")
        lines.append(str(answer_plan(spec, query)))
        lines.append(f"== translate_query {template}")
        lines.append(str(translate_query(spec, query, optimized=True)))
    text = "\n".join(lines) + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
    assert GOLDEN.exists(), "golden plans missing; regenerate with REGEN_GOLDEN=1"
    assert text == GOLDEN.read_text()
