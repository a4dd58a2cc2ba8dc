"""The disabled-tracing path must not allocate a single Span.

Every instrumented site opens its span through ``repro.obs.trace.span_of``,
which hands back one shared do-nothing object while ``tracer=None`` (the
default). These tests make that guarantee explicit: we poison
``Span.__init__`` and run a full initialize + refresh + answer under every
execution configuration — if any layer created a span, the workload would
blow up.
"""

from __future__ import annotations

import pytest

from repro import Update, Warehouse, parse
from repro.algebra.evaluator import evaluate
from repro.obs.trace import Span


@pytest.fixture
def poisoned_span(monkeypatch):
    def explode(self, *args, **kwargs):
        raise AssertionError("Span allocated while tracing is disabled")

    monkeypatch.setattr(Span, "__init__", explode)


def test_tracing_is_off_by_default(figure1_catalog, figure1_database, sold_view):
    warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
    assert warehouse.tracer is None


@pytest.mark.parametrize("engine", ["tuple", "columnar"])
def test_warehouse_lifecycle_allocates_no_spans(
    poisoned_span, figure1_catalog, figure1_database, sold_view, engine
):
    warehouse = Warehouse.specify(
        figure1_catalog, [sold_view], method="prop22", engine=engine
    )
    warehouse.initialize(figure1_database)
    warehouse.insert("Sale", [("Computer", "Paula")])
    warehouse.delete("Sale", [("TV set", "Mary")])
    warehouse.answer("pi[clerk](Sale) union pi[clerk](Emp)")
    warehouse.reconstruct("Emp")
    assert ("Computer", "Paula", 32) in warehouse.relation("Sold")


def test_evaluator_allocates_no_spans_untraced(poisoned_span, figure1_database):
    state = figure1_database.state()
    result = evaluate(parse("Sale join Emp"), state)
    assert len(result) == 3


def test_batch_apply_allocates_no_spans(
    poisoned_span, figure1_catalog, figure1_database, sold_view
):
    warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
    warehouse.initialize(figure1_database)
    warehouse.apply_batch(
        [
            Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            Update.delete("Sale", ("item", "clerk"), [("VCR", "Mary")]),
        ]
    )
    assert ("Computer", "Paula", 32) in warehouse.relation("Sold")


def test_spans_flow_again_after_disable(figure1_catalog, figure1_database, sold_view):
    warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
    warehouse.initialize(figure1_database)
    warehouse.enable_tracing()
    warehouse.insert("Sale", [("Computer", "Paula")])
    assert warehouse.last_trace("refresh") is not None
    warehouse.disable_tracing()
    assert warehouse.tracer is None
    assert warehouse.last_trace("refresh") is None
