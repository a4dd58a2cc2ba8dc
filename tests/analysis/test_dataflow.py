"""Unit tests for :mod:`repro.analysis.dataflow` (read sets + sanitizer)."""

from __future__ import annotations

import pytest

from repro import Catalog, Database, View, Warehouse, WarehouseError, parse, specify
from repro.analysis.dataflow import (
    DataflowReport,
    UpdateShape,
    check_refresh_reads,
    spec_read_sets,
    static_refresh_reads,
    views_only_read_sets,
)
from repro.obs.trace import Span
from repro.storage.engine import sanitizer_enabled


def figure1_catalog():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


def figure1_views():
    return [View("Sold", parse("Sale join Emp"))]


class TestSpecReadSets:
    def test_complement_spec_is_update_independent(self):
        spec = specify(figure1_catalog(), figure1_views())
        report = spec_read_sets(spec)
        assert report.update_independent
        assert report.source_relations == ("Emp", "Sale")
        for shape, reads in report.read_sets:
            assert reads == (), shape

    def test_every_shape_present(self):
        spec = specify(figure1_catalog(), figure1_views())
        report = spec_read_sets(spec)
        labels = {shape.label() for shape, _ in report.read_sets}
        assert labels == {
            "Sale:insert",
            "Sale:delete",
            "Emp:insert",
            "Emp:delete",
        }

    def test_reads_for_unknown_shape_raises(self):
        spec = specify(figure1_catalog(), figure1_views())
        report = spec_read_sets(spec)
        assert report.reads_for("Sale", "insert") == ()
        with pytest.raises(WarehouseError):
            report.reads_for("Nope", "insert")

    def test_to_dict_shape(self):
        spec = specify(figure1_catalog(), figure1_views())
        data = spec_read_sets(spec).to_dict()
        assert data["update_independent"] is True
        assert data["read_sets"]["Sale:insert"] == []

    def test_describe_mentions_verdict(self):
        spec = specify(figure1_catalog(), figure1_views())
        text = spec_read_sets(spec).describe()
        assert "update independent: True" in text
        assert "Sale:insert: independent" in text


class TestViewsOnlyReadSets:
    def test_select_only_views_are_independent(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        report = views_only_read_sets(
            catalog, [View("Senior", parse("sigma[age >= 40](Emp)"))]
        )
        assert report.update_independent

    def test_join_view_must_read_the_other_operand(self):
        report = views_only_read_sets(figure1_catalog(), figure1_views())
        assert not report.update_independent
        # Inserting into Sale forces a join against the full Emp relation.
        assert "Emp" in report.reads_for("Sale", "insert")

    def test_replica_view_is_independent(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        report = views_only_read_sets(catalog, [View("Staff", parse("Emp"))])
        assert report.update_independent


class TestUpdateShape:
    def test_label(self):
        assert UpdateShape("Sale", "insert").label() == "Sale:insert"


class TestStaticRefreshReads:
    def test_empty_for_complement_spec(self):
        spec = specify(figure1_catalog(), figure1_views())
        assert static_refresh_reads(spec, ["Sale"]) == frozenset()
        assert static_refresh_reads(spec, ["Sale", "Emp"]) == frozenset()


class TestCheckRefreshReads:
    def _root_with_read(self, relation):
        root = Span("refresh")
        child = Span("read", attributes={"relation": relation})
        root.children.append(child)
        return root

    def test_clean_trace_passes(self):
        spec = specify(figure1_catalog(), figure1_views())
        check_refresh_reads(spec, ["Sale"], self._root_with_read("Sold"))

    def test_source_read_outside_static_set_raises(self):
        spec = specify(figure1_catalog(), figure1_views())
        with pytest.raises(WarehouseError) as excinfo:
            check_refresh_reads(spec, ["Sale"], self._root_with_read("Emp"))
        assert "Emp" in str(excinfo.value)
        assert "sanitizer" in str(excinfo.value)


class TestSanitizerRuntime:
    def _warehouse(self):
        catalog = figure1_catalog()
        sources = Database(catalog)
        sources.load("Sale", [("TV", "Mary"), ("PC", "John")])
        sources.load("Emp", [("Mary", 23), ("John", 25)])
        warehouse = Warehouse.specify(catalog, figure1_views())
        warehouse.initialize(sources)
        return sources, warehouse

    def test_sanitizer_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert not sanitizer_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        assert sanitizer_enabled()
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", " 1 ")
        assert sanitizer_enabled()
        # Anything else is refused, never read as "on": ``false`` used to
        # arm the sanitizer it meant to disarm.
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "false")
        with pytest.raises(WarehouseError, match="REPRO_CHECK_INVARIANTS='false'"):
            sanitizer_enabled()

    def test_apply_clean_under_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sources, warehouse = self._warehouse()
        update = sources.insert("Sale", [("Computer", "Paula")])
        warehouse.apply(update)
        assert ("Computer", "Paula", 32) not in warehouse.relation("Sold").rows
        assert sorted(warehouse.reconstruct("Sale").rows) == sorted(
            sources["Sale"].rows
        )

    def test_apply_clean_with_tracing_and_sanitizer(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        sources, warehouse = self._warehouse()
        warehouse.enable_tracing()
        update = sources.insert("Sale", [("Computer", "Paula")])
        warehouse.apply(update)
        # The throwaway sanitizer collector must not leak into the tracer.
        assert len(warehouse.tracer.collectors) == 1
        assert "refresh" in warehouse.explain(name="refresh")
