"""The answer path's operator span trees, pinned byte for byte.

An answer and a reconstruction bind no delta relation, so a refresh-only
evaluation strategy must leave them exactly as they are: the same
operators, in the same order, producing the same row counts. This golden
records the span tree that ``answer_query`` builds for each query template
of the benchmark suite, over each base relation's inverse image (bound
before the ``answer`` span opens), and that the evaluation of each base
relation's inverse builds, on TPC-D scale 2. Regenerate with
``REGEN_GOLDEN=1`` only when a change to the answer path is intended.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import Warehouse, parse
from repro.algebra.evaluator import EvalStats, evaluate
from repro.core.translation import answer_query
from repro.obs.trace import Tracer
from repro.workloads.tpcd import tpcd_instance

GOLDEN = Path(__file__).parent / "golden" / "answer_path.txt"

#: The benchmark suite's query templates, with fixed literals.
TEMPLATES = {
    "point_order": "sigma[orderkey = 5](Orders)",
    "point_customer": "sigma[custkey = 7](Customer)",
    "join_lineitem_orders": "sigma[orderkey = 11](Lineitem) join Orders",
    "join_orders_customer": "sigma[custkey = 13](Orders) join Customer",
    "union_orders": "sigma[orderkey = 17](Orders) union sigma[orderkey = 19](Orders)",
    "factjoin": (
        "pi[orderkey, linenumber, price, mktsegment]"
        "(sigma[price > 45000](Lineitem) join Orders join Customer)"
    ),
    "antijoin": (
        "sigma[custkey < 40](Customer) minus "
        "pi[custkey, cname, cnationkey, mktsegment](Customer join Orders)"
    ),
    "scan": "sigma[price > 48000](Lineitem)",
}

PINNED = ("relation", "fastpath", "rows_out")


def _render(span, depth=0):
    attributes = " ".join(
        f"{name}={span.attributes[name]}" for name in PINNED if name in span.attributes
    )
    lines = [f"{'  ' * depth}{span.name} {attributes}".rstrip()]
    for child in span.children:
        lines.extend(_render(child, depth + 1))
    return lines


def _restricted(span):
    return any(s.attributes.get("restricted") for s in span.walk())


def test_answer_and_reconstruct_span_trees_match_the_golden():
    instance = tpcd_instance(2)
    warehouse = Warehouse.specify(instance.catalog, instance.views)
    warehouse.initialize(instance.database)
    spec, state = warehouse.spec, warehouse.state
    lines = []
    for template, text in TEMPLATES.items():
        tracer = Tracer()
        answer_query(spec, state, parse(text), tracer=tracer)
        assert not _restricted(tracer.last_root)
        lines.append(f"== answer {template}")
        lines.extend(_render(tracer.last_root))
    for relation in instance.catalog.relation_names():
        tracer, stats = Tracer(), EvalStats()
        with tracer.span("reconstruct", relation=relation):
            evaluate(spec.inverse_for(relation), state, tracer=tracer, stats=stats)
        assert not _restricted(tracer.last_root)
        lines.append(f"== reconstruct {relation}")
        lines.extend(_render(tracer.last_root))
    text = "\n".join(lines) + "\n"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(text)
    assert GOLDEN.exists(), "golden span trees missing; regenerate with REGEN_GOLDEN=1"
    assert text == GOLDEN.read_text()
