"""Sharding certificates and :meth:`ShardedWarehouse.require_commutativity`.

Plans are pure functions of the spec (shared by every shard, never
evicted), so no certificate invalidates anything; but a certificate that
records *refuted* batch commutativity is refused outright, because
concurrent use of the layout would be order-dependent.
"""

from __future__ import annotations

import pytest

from repro import Relation, View, WarehouseError, parse
from repro.analysis.concurrency import prove_sharding_target
from repro.analysis.specfile import LintTarget, RoutingSpec, ShardingOptions
from repro.compiler import RefreshCompiler
from repro.core.sharding import ShardedWarehouse, ShardRouting

VIEWS = [View("Sold", parse("Sale join Emp"))]

INIT = {
    "Sale": Relation(("item", "clerk"), [("TV", "Mary"), ("Car", "Ann")]),
    "Emp": Relation(("clerk", "age"), [("Mary", 23), ("Ann", 31)]),
}


def certificate_for(catalog):
    return prove_sharding_target(
        LintTarget(
            "spec.json",
            catalog,
            VIEWS,
            {},
            sharding=ShardingOptions(
                routings=(RoutingSpec("Sale", "item", shards=2),),
                expect="proved",
            ),
        )
    )


def make_sharded(catalog):
    warehouse = ShardedWarehouse.specify(
        catalog, VIEWS, routings=[ShardRouting("Sale", "item", shards=2)]
    )
    warehouse.initialize(INIT)
    return warehouse


def warm(warehouse):
    warehouse.insert("Sale", [("Radio", "Mary")])
    warehouse.insert("Emp", [("Zoe", 28)])


class TestShardedRecertify:
    def test_refuted_commutativity_certificate_is_refused(
        self, figure1_catalog
    ):
        warehouse = make_sharded(figure1_catalog)
        warm(warehouse)
        plans = RefreshCompiler.of(warehouse.spec).plan_count
        result = certificate_for(figure1_catalog)
        assert result.verdict == "PROVED"
        warehouse.require_commutativity(result.certificate)
        refuted = dict(result.certificate)
        refuted["commutativity"] = dict(refuted["commutativity"], commute=False)
        with pytest.raises(WarehouseError, match="refutes batch commutativity"):
            warehouse.require_commutativity(refuted)
        # Neither verdict touches the plans; the warehouse keeps serving.
        assert RefreshCompiler.of(warehouse.spec).plan_count == plans > 0
        warehouse.insert("Sale", [("Amp", "Mary")])
