"""End-to-end observability over the paper's workloads.

Two theorems become *observable* here. Update independence (Thm 4.1):
refresh traces contain zero ``read`` spans over source relations — the
maintenance expressions only touch warehouse storage. And the PR 1 fast
paths: on the E1 workload the Prop 2.2 complement shape drives the
anti-join rewrite during initialization, and ``explain()`` names it.
"""

from __future__ import annotations

import pytest

from repro import Catalog, Database, Update, View, Warehouse, parse
from repro.integrator import Channel, ComplementIntegrator, Source
from repro.obs.explain import source_relations_read


@pytest.fixture
def traced_e1(figure1_catalog, figure1_database, sold_view):
    """Figure 1 warehouse with tracing on from before initialization."""
    warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
    warehouse.enable_tracing()
    warehouse.initialize(figure1_database)
    return warehouse


class TestE1Explain:
    def test_initialize_explain_names_the_antijoin_fastpath(self, traced_e1):
        # C_Sale = Sale - pi[item, clerk](Sale join Emp) has exactly the
        # Prop 2.2 shape the anti-join rewrite targets.
        text = traced_e1.explain(name="initialize")
        assert "difference*" in text
        assert "fastpath=anti_join" in text
        assert "anti_join" in text.splitlines()[1]  # named in the summary header

    def test_refresh_explain_names_the_semijoin_fastpath(self, traced_e1):
        traced_e1.insert("Sale", [("Computer", "Paula")])
        text = traced_e1.explain(name="refresh")
        assert "refresh" in text.splitlines()[0] or "refresh" in text
        assert "fastpath=semi_join" in text

    def test_default_explain_is_newest_trace(self, traced_e1):
        assert "initialize" in traced_e1.explain()
        traced_e1.insert("Sale", [("Computer", "Paula")])
        assert "refresh" in traced_e1.explain()

    def test_explain_requires_tracing(
        self, figure1_catalog, figure1_database, sold_view
    ):
        from repro.core.warehouse import WarehouseError

        warehouse = Warehouse.specify(figure1_catalog, [sold_view])
        warehouse.initialize(figure1_database)
        with pytest.raises(WarehouseError):
            warehouse.explain()

    def test_refresh_reads_no_source_relation(self, traced_e1):
        # Thm 4.1, observed: the Example 1.1 insertion is maintained
        # entirely from {Sold, C_Emp, C_Sale}.
        traced_e1.insert("Sale", [("Computer", "Paula")])
        root = traced_e1.last_trace("refresh")
        assert source_relations_read(root, ["Sale", "Emp"]) == []
        read = {s.attributes.get("relation") for s in root.find_all("read")}
        assert read  # the trace does record reads — warehouse relations and
        # the in-memory delta placeholders (Sale__ins / Sale__del), never
        # the source relation Sale itself.
        warehouse_reads = {r for r in read if "__" not in r}
        assert warehouse_reads <= {"Sold", "C_Emp", "C_Sale"}


class TestExample22UpdateIndependence:
    """Example 2.2: R(A,B,C) with V1 = pi_AB(R), V2 = pi_BC(R), V3 = sigma_B=b(R)."""

    @pytest.fixture
    def traced_warehouse(self):
        catalog = Catalog()
        catalog.relation("R", ("A", "B", "C"))
        views = [
            View("V1", parse("pi[A, B](R)")),
            View("V2", parse("pi[B, C](R)")),
            View("V3", parse("sigma[B = 'b'](R)")),
        ]
        warehouse = Warehouse.specify(catalog, views, method="prop22")
        db = Database(catalog)
        db.load("R", [("a", "a", "a"), ("a", "b", "c"), ("b", "a", "a")])
        warehouse.initialize(db)
        warehouse.enable_tracing()
        return warehouse

    def test_refresh_trace_shows_zero_source_reads(self, traced_warehouse):
        traced_warehouse.insert("R", [("c", "b", "a"), ("c", "c", "c")])
        root = traced_warehouse.last_trace("refresh")
        assert root is not None
        assert source_relations_read(root, ["R"]) == []

    def test_deletion_refresh_is_also_source_free(self, traced_warehouse):
        traced_warehouse.delete("R", [("a", "a", "a")])
        root = traced_warehouse.last_trace("refresh")
        assert source_relations_read(root, ["R"]) == []
        # The warehouse still agrees with a source-side recomputation.
        assert traced_warehouse.reconstruct("R").to_set() == {
            ("a", "b", "c"),
            ("b", "a", "a"),
        }


class TestMetricsEndToEnd:
    def test_warehouse_refresh_metrics(self, traced_e1):
        traced_e1.insert("Sale", [("Computer", "Paula")])
        traced_e1.insert("Sale", [("Radio", "John")])
        metrics = traced_e1.metrics
        assert metrics.value("warehouse.refreshes") == 2
        assert metrics.value("warehouse.rows_inserted") >= 2
        assert metrics.get("warehouse.refresh_seconds").count == 2
        # EvalStats is folded in under the evaluator.* prefix.
        assert metrics.value("evaluator.nodes_evaluated") > 0
        assert metrics.value("evaluator.semijoin_fastpaths") >= 1
        # Storage gauges track the warehouse relations.
        assert metrics.value("warehouse.rows") == traced_e1.storage_rows()
        assert metrics.value("warehouse.complement_rows.C_Emp") == 0  # Paula sold

    def test_integrator_metrics_share_the_registry(self, figure1_catalog):
        channel = Channel()
        sales = Source("SalesDB", figure1_catalog, ("Sale",), channel)
        company = Source("CompanyDB", figure1_catalog, ("Emp",), channel)
        sales.load("Sale", [("TV", "Mary")])
        company.load("Emp", [("Mary", 23), ("Paula", 32)])
        integrator = ComplementIntegrator(
            figure1_catalog,
            [View("Sold", parse("Sale join Emp"))],
            method="prop22",
        )
        integrator.initialize([sales, company])
        sales.insert("Sale", [("Computer", "Paula")])
        sales.insert("Sale", [("Radio", "Mary")])
        integrator.process_all(channel)
        metrics = integrator.metrics
        assert metrics.value("integrator.notifications") == 2
        assert metrics.value("integrator.updates.Sale") == 2
        assert "integrator.updates.Emp" not in metrics
        assert metrics.value("warehouse.refreshes") == 2


class TestEveryRefreshIsObserved:
    """There is one refresh path, and it is the observed one.

    Every state-changing refresh counts the nodes it evaluated, shows its
    operators under ``maintain``, and hands the sanitizer ``read`` spans
    the interpreter emitted while computing them — never a list written
    from the plan's static dependencies, which would validate the plan
    against itself.
    """

    UPDATES = (
        Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
        Update.insert("Sale", ("item", "clerk"), [("Radio", "John")]).compose(
            Update.delete("Sale", ("item", "clerk"), [("PC", "John")])
        ),
        Update.delete("Emp", ("clerk", "age"), [("Paula", 32)]).compose(
            Update.delete("Sale", ("item", "clerk"), [("Computer", "Paula")])
        ),
    )

    def test_state_changing_apply_reports_work_and_operators(self, traced_e1):
        for update in self.UPDATES:
            assert traced_e1.apply(update)
            assert traced_e1.last_refresh_stats.nodes_evaluated > 0
            maintained = [
                span
                for span in traced_e1.last_trace("refresh").walk()
                if span.name == "maintain"
            ]
            assert maintained
            for span in maintained:
                operators = [s.name for s in span.walk()][1:]
                assert operators and "read" in operators, span.attributes
            text = traced_e1.explain(name="refresh")
            assert "maintain" in text and "read" in text
            assert any(op in text for op in ("join", "difference", "union"))

    def test_sanitizer_checks_reads_the_interpreter_performed(
        self, monkeypatch, figure1_catalog, figure1_database, sold_view
    ):
        from repro.analysis import dataflow

        checked = []
        original = dataflow.check_refresh_reads

        def recording(spec, updated, root):
            checked.append(root)
            return original(spec, updated, root)

        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        monkeypatch.setattr(dataflow, "check_refresh_reads", recording)
        warehouse = Warehouse.specify(figure1_catalog, [sold_view], method="prop22")
        warehouse.initialize(figure1_database)
        for update in self.UPDATES:
            assert warehouse.apply(update)
        assert len(checked) == len(self.UPDATES)
        for root in checked:
            reads = [span for span in root.walk() if span.name == "read"]
            assert reads
            for span in reads:
                # Only the evaluator's one span site sets rows_out on a
                # read, after computing it; a read span opened ahead of
                # the work from a dependency list would not carry it.
                assert "rows_out" in span.attributes, span.attributes
            assert not source_relations_read(root, figure1_catalog.relation_names())


def _figure1_lifecycle(engine):
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    database = Database(catalog)
    database.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
    database.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
    warehouse = Warehouse.specify(
        catalog, [View("Sold", parse("Sale join Emp"))], method="prop22",
        engine=engine,
    )
    warehouse.enable_tracing()
    warehouse.initialize(database)
    warehouse.insert("Sale", [("Computer", "Paula")])
    warehouse.delete("Sale", [("TV set", "Mary")])
    warehouse.answer("pi[clerk](Sale) union pi[clerk](Emp)")
    return warehouse


def _tpcd_lifecycle(engine):
    import random

    from repro.workloads.tpcd import order_insert_rows, tpcd_instance

    instance = tpcd_instance(scale=1.0, seed=7)
    warehouse = Warehouse.specify(
        instance.catalog, instance.views, engine=engine
    )
    warehouse.enable_tracing()
    warehouse.initialize(instance.database)
    orders, lines = order_insert_rows(random.Random(3), instance.database, 2)
    warehouse.insert("Orders", orders)
    warehouse.insert("Lineitem", lines)
    warehouse.delete("Lineitem", lines[:2])
    # The fused TPC-D refreshes need no join fast path any more; this
    # projection stays inside one join operand, so the answer fires one.
    warehouse.answer("pi[orderkey](Orders join Customer)")
    return warehouse


class TestOneInterpreter:
    """Both engines are one walk: same spans, same counters, by construction."""

    ENGINE_ONLY = ("engine", "index_hit")

    def _shape(self, span):
        attributes = {
            key: value
            for key, value in span.attributes.items()
            if key not in self.ENGINE_ONLY
        }
        return span.name, attributes, [self._shape(c) for c in span.children]

    @pytest.mark.parametrize("lifecycle", [_figure1_lifecycle, _tpcd_lifecycle])
    def test_engines_trace_and_count_alike(self, lifecycle):
        tuple_wh = lifecycle("tuple")
        columnar_wh = lifecycle("columnar")
        tuple_roots = tuple_wh._trace_buffer.roots
        columnar_roots = columnar_wh._trace_buffer.roots
        assert [r.name for r in tuple_roots] == (
            ["initialize"] + ["refresh"] * (len(tuple_roots) - 2) + ["answer"]
        )
        assert [self._shape(r) for r in tuple_roots] == [
            self._shape(r) for r in columnar_roots
        ]
        # The trees are not trivially equal: operators ran, fast paths fired.
        operators = [s for root in columnar_roots for s in root.walk()]
        assert any(s.attributes.get("fastpath") for s in operators)
        assert all(
            s.attributes["engine"] == "columnar"
            for s in operators
            if "rows_out" in s.attributes and s.name != "reconstruct"
        )
        assert tuple_wh.eval_stats.snapshot() == columnar_wh.eval_stats.snapshot()
        assert tuple_wh.eval_stats.nodes_evaluated > 0
        assert tuple_wh.state == columnar_wh.state
