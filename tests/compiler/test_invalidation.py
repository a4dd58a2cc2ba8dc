"""Plan-cache invalidation: the certificate digest is the cache key.

``Warehouse.recertify()`` re-runs the prover and compares digests. These
tests drive all three verdicts — unchanged (plans survive), changed
(evict + recompile), and failed re-validation (drop to the interpreted
path) — and assert the warehouse stays correct through each transition.
"""

from __future__ import annotations

import pytest

from repro import Update, Warehouse


@pytest.fixture
def compiled_pair(figure1_catalog, figure1_database, sold_view):
    """A compiled warehouse and an interpreted reference, initialized alike."""
    compiled = Warehouse.specify(
        figure1_catalog, [sold_view], method="prop22", compile_plans=True
    )
    reference = Warehouse.specify(
        figure1_catalog, [sold_view], method="prop22", compile_plans=False
    )
    compiled.initialize(figure1_database)
    reference.initialize(figure1_database)
    return compiled, reference


def _canonical(state):
    return {name: rel.to_set() for name, rel in state.items()}


def _warm(warehouse):
    warehouse.insert("Sale", [("Radio", "Ken")])
    warehouse.insert("Emp", [("Ken", 55)])


class TestUnchangedVerdict:
    def test_recertify_same_spec_keeps_plans(self, compiled_pair):
        compiled, _ = compiled_pair
        _warm(compiled)
        before = compiled.plan_compiler
        assert before is not None and before.plan_count == 2
        assert compiled.recertify() is False
        assert compiled.plan_compiler is before
        assert compiled.plan_compiler.plan_count == 2

    def test_recertify_noop_when_compilation_off(
        self, figure1_catalog, figure1_database, sold_view
    ):
        warehouse = Warehouse.specify(
            figure1_catalog, [sold_view], compile_plans=False
        )
        warehouse.initialize(figure1_database)
        assert warehouse.recertify() is False


class TestChangedVerdict:
    def test_digest_change_evicts_and_recompiles(self, compiled_pair, monkeypatch):
        compiled, reference = compiled_pair
        _warm(compiled)
        _warm(reference)
        old = compiled.plan_compiler
        evicted = old.plan_count
        assert evicted == 2

        # Simulate a prover re-verdict that changes a recorded fact: the
        # canonical digest of the (still valid) certificate moves.
        import repro.compiler.certificate as cert_mod

        monkeypatch.setattr(
            cert_mod, "canonical_digest", lambda document: "f" * 64
        )
        assert compiled.recertify() is True
        fresh = compiled.plan_compiler
        assert fresh is not None and fresh is not old
        assert fresh.plan_count == 0  # the whole plan cache was evicted
        assert compiled.metrics.value("compiler.evictions") == evicted

        # The evicted shapes recompile on demand and stay correct.
        update = Update.insert("Sale", ("item", "clerk"), [("Camera", "Mary")])
        compiled.apply(update)
        reference.apply(update)
        assert fresh.plan_count == 1
        assert _canonical(compiled.state) == _canonical(reference.state)


class TestFailedVerdict:
    def test_failed_revalidation_falls_back_to_interpreter(
        self, compiled_pair, monkeypatch
    ):
        compiled, reference = compiled_pair
        _warm(compiled)
        _warm(reference)
        assert compiled.plan_compiler is not None

        # Simulate the prover withdrawing its verdict entirely.
        import repro.compiler.certificate as cert_mod

        monkeypatch.setattr(
            cert_mod,
            "check_certificate",
            lambda catalog, document: ["inverse R fails numeric replay"],
        )
        assert compiled.recertify() is True
        assert compiled.plan_compiler is None
        assert compiled.metrics.value("compiler.fallbacks") >= 1
        assert compiled.metrics.value("compiler.evictions") == 2

        # Refreshes keep working on the interpreted path.
        update = Update.insert("Sale", ("item", "clerk"), [("Camera", "Mary")])
        compiled.apply(update)
        reference.apply(update)
        assert _canonical(compiled.state) == _canonical(reference.state)
        assert compiled.plan_compiler is None  # no silent re-arm

    def test_recertify_can_rearm_after_fix(self, compiled_pair, monkeypatch):
        compiled, _ = compiled_pair
        _warm(compiled)
        import repro.compiler.certificate as cert_mod

        with monkeypatch.context() as patch:
            patch.setattr(
                cert_mod,
                "check_certificate",
                lambda catalog, document: ["withdrawn"],
            )
            assert compiled.recertify() is True
            assert compiled.plan_compiler is None
        # The patch is gone — the prover "accepts" the spec again.
        assert compiled.recertify() is True
        assert compiled.plan_compiler is not None
        compiled.insert("Sale", [("Camera", "Mary")])
        assert compiled.plan_compiler.plan_count == 1


class TestUncertifiableSpecFallback:
    def test_star_spec_runs_interpreted_under_compile(self):
        """A spec the prover refuses must not break the warehouse."""
        from repro import Catalog, Database, View, parse, parse_condition
        from repro.core.star import FactTable, star_specify

        catalog = Catalog()
        catalog.relation("Customer", ("custkey", "segment"), key=("custkey",))
        catalog.relation("OrdersN", ("loc", "okey", "custkey"), key=("okey",))
        catalog.relation("OrdersS", ("loc", "okey", "custkey"), key=("okey",))
        catalog.add_check("OrdersN", parse_condition("loc = 'N'"))
        catalog.add_check("OrdersS", parse_condition("loc = 'S'"))
        fact = FactTable(
            "Sales", "loc", {"N": parse("OrdersN"), "S": parse("OrdersS")}
        )
        spec = star_specify(catalog, [fact], [View("Dim", parse("Customer"))])
        warehouse = Warehouse(spec, compile_plans=True)
        db = Database(catalog)
        db.load("Customer", [(1, "RETAIL")])
        db.load("OrdersN", [("N", 10, 1)])
        db.load("OrdersS", [("S", 20, 1)])
        warehouse.initialize(db)
        warehouse.insert("OrdersN", [("N", 11, 1)])
        assert warehouse.plan_compiler is None
        assert warehouse.metrics.value("compiler.fallbacks") == 1
        assert ("N", 11, 1) in warehouse.reconstruct("OrdersN").to_set()
