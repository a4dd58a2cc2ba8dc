"""Sharding certificates and :meth:`ShardedWarehouse.recertify`.

The sharding certificate hashes with the same
:func:`~repro.analysis.digest.canonical_digest` as the spec certificate.
:meth:`ShardedWarehouse.recertify` records the digest of the last accepted
certificate and reports whether it changed. Refresh plans are pure
functions of the spec (shared by every shard, never evicted), so a changed
digest leaves them alone; a certificate that records *refuted* batch
commutativity is refused outright, because concurrent use of the layout
would be order-dependent.
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


def certificate_for(catalog, sources=None):
    result = prove_sharding_target(
        LintTarget(
            "spec.json",
            catalog,
            VIEWS,
            {},
            sharding=ShardingOptions(
                routings=(RoutingSpec("Sale", "item", shards=2),),
                expect="refuted" if sources else "proved",
                sources=sources,
            ),
        )
    )
    return result


def make_sharded(catalog):
    warehouse = ShardedWarehouse.specify(
        catalog, VIEWS, routings=[ShardRouting("Sale", "item", shards=2)]
    )
    warehouse.initialize(INIT)
    return warehouse


def warm(warehouse):
    warehouse.insert("Sale", [("Radio", "Mary")])
    warehouse.insert("Emp", [("Zoe", 28)])


def total_plans(warehouse):
    return RefreshCompiler.of(warehouse.spec).plan_count


class TestShardedRecertify:
    def test_first_certificate_is_accepted_without_eviction(
        self, figure1_catalog
    ):
        warehouse = make_sharded(figure1_catalog)
        warm(warehouse)
        plans_before = total_plans(warehouse)
        assert plans_before > 0
        result = certificate_for(figure1_catalog)
        assert result.verdict == "PROVED"
        assert warehouse.recertify(result.certificate) is True
        assert total_plans(warehouse) == plans_before

    def test_same_digest_keeps_plans(self, figure1_catalog):
        warehouse = make_sharded(figure1_catalog)
        warm(warehouse)
        certificate = certificate_for(figure1_catalog).certificate
        warehouse.recertify(certificate)
        plans_before = total_plans(warehouse)
        assert warehouse.recertify(dict(certificate)) is False
        assert total_plans(warehouse) == plans_before

    def test_changed_digest_is_reported(self, figure1_catalog):
        warehouse = make_sharded(figure1_catalog)
        warm(warehouse)
        certificate = certificate_for(figure1_catalog).certificate
        warehouse.recertify(certificate)
        plans_before = total_plans(warehouse)
        assert plans_before > 0
        tampered = dict(certificate)
        tampered["shards"] = 3
        assert warehouse.recertify(tampered) is True
        assert warehouse.recertify(tampered) is False
        assert total_plans(warehouse) == plans_before
        warehouse.insert("Sale", [("Amp", "Zoe")])

    def test_refuted_commutativity_certificate_is_refused(
        self, figure1_catalog
    ):
        warehouse = make_sharded(figure1_catalog)
        warm(warehouse)
        accepted = certificate_for(figure1_catalog).certificate
        warehouse.recertify(accepted)
        refuted = dict(accepted)
        refuted["commutativity"] = dict(refuted["commutativity"])
        refuted["commutativity"]["commute"] = False
        with pytest.raises(WarehouseError, match="refutes batch commutativity"):
            warehouse.recertify(refuted)
        # A refused certificate is not recorded: the accepted one still is.
        assert warehouse.recertify(accepted) is False
