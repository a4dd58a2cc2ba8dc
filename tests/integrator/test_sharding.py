"""Unit tests for :mod:`repro.core.sharding`.

The load-bearing property throughout: a sharded warehouse over any routing
must be *observationally identical* to an unsharded reference warehouse fed
the same updates — assembled state, reconstruction, and query answers.
"""

from __future__ import annotations

import pytest

from repro import Catalog, Relation, Update, View, WarehouseError, parse
from repro.core.complement import specify
from repro.core.sharding import (
    ShardedWarehouse,
    ShardRouter,
    ShardRouting,
)
from repro.core.warehouse import Warehouse


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


VIEWS = [View("Sold", parse("Sale join Emp"))]

INIT = {
    "Sale": Relation(("item", "clerk"), [("TV", "Mary"), ("Car", "Ann")]),
    "Emp": Relation(("clerk", "age"), [("Mary", 23), ("Ann", 31), ("Bob", 44)]),
}


def make_pair(catalog, routings):
    """A sharded warehouse and its unsharded reference, both initialized."""
    sharded = ShardedWarehouse.specify(catalog, VIEWS, routings=routings)
    sharded.initialize(INIT)
    reference = Warehouse(specify(catalog, VIEWS))
    reference.initialize(INIT)
    return sharded, reference


def assert_equivalent(sharded, reference):
    assert sharded.state() == reference.state
    for base in ("Sale", "Emp"):
        assert sharded.reconstruct(base) == reference.reconstruct(base)


class TestShardRouting:
    def test_range_strategy(self):
        routing = ShardRouting("Sale", "item", boundaries=["h", "p"])
        assert routing.shards == 3
        assert routing.shard_of("apple") == 0
        assert routing.shard_of("hat") == 1
        assert routing.shard_of("zoo") == 2

    def test_hash_strategy_is_stable_and_total(self):
        routing = ShardRouting("Sale", "item", shards=4)
        for value in ("a", "b", 17, ("x", 1)):
            shard = routing.shard_of(value)
            assert 0 <= shard < 4
            assert routing.shard_of(value) == shard

    def test_exactly_one_strategy_required(self):
        with pytest.raises(WarehouseError):
            ShardRouting("Sale", "item")
        with pytest.raises(WarehouseError):
            ShardRouting("Sale", "item", boundaries=["m"], shards=2)
        with pytest.raises(WarehouseError):
            ShardRouting("Sale", "item", boundaries=[])
        with pytest.raises(WarehouseError):
            ShardRouting("Sale", "item", shards=0)

    def test_range_boundary_value_belongs_to_the_upper_shard(self):
        # Half-open intervals: shard i owns boundaries[i-1] <= v < boundaries[i],
        # so a value exactly on a split point routes to the shard above it.
        routing = ShardRouting("Sale", "item", boundaries=[4, 8])
        assert routing.shard_of(3) == 0
        assert routing.shard_of(4) == 1
        assert routing.shard_of(7) == 1
        assert routing.shard_of(8) == 2

    def test_hash_routes_unhashable_and_odd_values_via_repr(self):
        # crc32-of-repr routing has no trouble with values Python's hash()
        # rejects (lists) or that differ from their str form (None, floats).
        routing = ShardRouting("Sale", "item", shards=4)
        for value in (None, [1, 2], {"k": 1}, 3.5, ""):
            assert 0 <= routing.shard_of(value) < 4
            assert routing.shard_of(value) == routing.shard_of(value)

    def test_hash_routing_of_repr_failing_value_rejected(self):
        class Broken:
            def __repr__(self) -> str:
                raise RuntimeError("no repr for you")

        routing = ShardRouting("Sale", "item", shards=2)
        with pytest.raises(WarehouseError, match="repr\\(\\) failed"):
            routing.shard_of(Broken())

    def test_compatibility_is_the_co_partitioning_predicate(self):
        hash2a = ShardRouting("A", "k", shards=2)
        hash2b = ShardRouting("B", "k", shards=2)
        assert hash2a.compatible_with(hash2b)
        assert not hash2a.compatible_with(ShardRouting("B", "k", shards=3))
        range_a = ShardRouting("A", "k", boundaries=[4])
        assert not hash2a.compatible_with(range_a)
        assert range_a.compatible_with(ShardRouting("B", "k", boundaries=[4]))
        assert not range_a.compatible_with(ShardRouting("B", "k", boundaries=[7]))

    def test_incomparable_range_value_rejected(self):
        routing = ShardRouting("Sale", "item", boundaries=["m"])
        with pytest.raises(WarehouseError, match="not.*comparable"):
            routing.shard_of(None)


class TestShardRouter:
    def test_split_update_routes_and_broadcasts(self):
        router = ShardRouter([ShardRouting("Sale", "item", boundaries=["M"])])
        update = Update.insert(
            "Sale", ("item", "clerk"), [("Amp", "Mary"), ("TV", "Ann")]
        ).compose(Update.insert("Emp", ("clerk", "age"), [("Zoe", 50)]))
        parts = router.split_update(update)
        assert set(parts) == {0, 1}
        # Routed rows split by boundary; the Emp delta reaches both shards.
        sale0 = next(d for d in parts[0] if d.relation == "Sale")
        sale1 = next(d for d in parts[1] if d.relation == "Sale")
        assert sale0.inserts.rows == frozenset({("Amp", "Mary")})
        assert sale1.inserts.rows == frozenset({("TV", "Ann")})
        for part in parts.values():
            emp = next(d for d in part if d.relation == "Emp")
            assert emp.inserts.rows == frozenset({("Zoe", 50)})

    def test_split_update_omits_idle_shards(self):
        router = ShardRouter([ShardRouting("Sale", "item", boundaries=["M"])])
        update = Update.insert("Sale", ("item", "clerk"), [("Amp", "Mary")])
        parts = router.split_update(update)
        assert set(parts) == {0}

    def test_split_state_slices_and_replicates(self):
        router = ShardRouter([ShardRouting("Sale", "item", boundaries=["M"])])
        parts = router.split_state(INIT)
        assert len(parts) == 2
        assert parts[0]["Sale"].rows == frozenset({("Car", "Ann")})
        assert parts[1]["Sale"].rows == frozenset({("TV", "Mary")})
        assert parts[0]["Emp"] is parts[1]["Emp"] is INIT["Emp"]

    def test_duplicate_routing_rejected(self):
        with pytest.raises(WarehouseError, match="more than once"):
            ShardRouter(
                [
                    ShardRouting("Sale", "item", shards=2),
                    ShardRouting("Sale", "clerk", shards=2),
                ]
            )

    def test_inconsistent_shard_counts_rejected(self, catalog):
        catalog.relation("Extra", ("k",))
        with pytest.raises(WarehouseError, match="inconsistent"):
            ShardRouter(
                [
                    ShardRouting("Sale", "item", shards=2),
                    ShardRouting("Extra", "k", shards=3),
                ]
            )

    def test_missing_routing_attribute_rejected(self):
        router = ShardRouter([ShardRouting("Sale", "item", shards=2)])
        with pytest.raises(WarehouseError, match="missing"):
            router.split_relation("Sale", Relation(("clerk",), [("Mary",)]))


class TestAssemblyClassification:
    def test_thm22_complement_modes(self, catalog):
        wh = ShardedWarehouse.specify(
            catalog, VIEWS, routings=[ShardRouting("Sale", "item", shards=2)]
        )
        # The view and the routed relation's complement slice cleanly
        # (union); the complement of the relation joined *against* the
        # routed one has the K − π(…Sale…) shape and flips to intersection.
        assert wh._assembly["Sold"] == "union"
        assert wh._assembly["C_Sale"] == "union"
        assert wh._assembly["C_Emp"] == "intersect"

    def test_routed_on_non_attribute_rejected(self, catalog):
        with pytest.raises(WarehouseError, match="not an.*attribute"):
            ShardedWarehouse.specify(
                catalog, VIEWS, routings=[ShardRouting("Sale", "ghost", shards=2)]
            )

    def test_unknown_routed_relation_rejected(self, catalog):
        catalog2 = Catalog()
        catalog2.relation("Sale", ("item", "clerk"))
        with pytest.raises(WarehouseError, match="not in catalog"):
            ShardedWarehouse.specify(
                catalog2,
                [View("V", parse("Sale"))],
                routings=[ShardRouting("Ghost", "k", shards=2)],
            )

    def test_co_partitioned_two_routed_relations_admitted(self):
        catalog = Catalog()
        catalog.relation("A", ("k", "x"))
        catalog.relation("B", ("k", "y"))
        wh = ShardedWarehouse.specify(
            catalog,
            [View("V", parse("A join B"))],
            routings=[
                ShardRouting("A", "k", shards=2),
                ShardRouting("B", "k", shards=2),
            ],
        )
        assert wh._assembly["V"] == "union"
        assert wh.co_partitioned == (("A", "B"),)

    def test_non_co_partitioned_two_routed_relations_rejected(self):
        catalog = Catalog()
        catalog.relation("A", ("k", "x"))
        catalog.relation("B", ("k", "y"))
        with pytest.raises(WarehouseError, match="not co-partitioned"):
            ShardedWarehouse.specify(
                catalog,
                [View("V", parse("A join B"))],
                routings=[
                    ShardRouting("A", "k", boundaries=[4]),
                    ShardRouting("B", "k", shards=2),
                ],
            )

    def test_range_co_partitioning_requires_identical_boundaries(self):
        catalog = Catalog()
        catalog.relation("A", ("k", "x"))
        catalog.relation("B", ("k", "y"))
        with pytest.raises(WarehouseError, match="not co-partitioned"):
            ShardedWarehouse.specify(
                catalog,
                [View("V", parse("A join B"))],
                routings=[
                    ShardRouting("A", "k", boundaries=[4]),
                    ShardRouting("B", "k", boundaries=[7]),
                ],
            )


class TestShardedWarehouseEquivalence:
    OPS = [
        Update.insert(
            "Sale", ("item", "clerk"), [("Radio", "Bob"), ("Zither", "Mary")]
        ),
        Update.delete("Sale", ("item", "clerk"), [("TV", "Mary")]),
        Update.insert("Emp", ("clerk", "age"), [("Eve", 28)]),
        Update.insert("Sale", ("item", "clerk"), [("Amp", "Eve")]),
        Update.delete("Emp", ("clerk", "age"), [("Bob", 44)]).compose(
            Update.delete("Sale", ("item", "clerk"), [("Radio", "Bob")])
        ),
    ]

    @pytest.mark.parametrize(
        "routings",
        [
            [ShardRouting("Sale", "item", boundaries=["M"])],
            [ShardRouting("Sale", "item", boundaries=["D", "S"])],
            [ShardRouting("Sale", "item", shards=1)],
            [ShardRouting("Sale", "item", shards=4)],
            [ShardRouting("Sale", "clerk", shards=3)],
        ],
        ids=["range-2", "range-3", "hash-1", "hash-4", "by-clerk-3"],
    )
    def test_matches_unsharded_reference(self, catalog, routings):
        sharded, reference = make_pair(catalog, routings)
        assert_equivalent(sharded, reference)
        for update in self.OPS:
            sharded.apply(update)
            reference.apply(update)
            assert_equivalent(sharded, reference)

    def test_answer_parity(self, catalog):
        sharded, reference = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        for update in self.OPS[:3]:
            sharded.apply(update)
            reference.apply(update)
        query = parse("pi[item, age](Sale join Emp)")
        assert sharded.answer(query) == reference.answer(query)

    def test_apply_batch_parity(self, catalog):
        sharded, reference = make_pair(
            catalog, [ShardRouting("Sale", "item", shards=2)]
        )
        sharded.apply_batch(self.OPS)
        reference.apply_batch(self.OPS)
        assert_equivalent(sharded, reference)

    def test_insert_delete_conveniences(self, catalog):
        sharded, reference = make_pair(
            catalog, [ShardRouting("Sale", "item", shards=2)]
        )
        sharded.insert("Sale", [("Amp", "Bob")])
        reference.insert("Sale", [("Amp", "Bob")])
        sharded.delete("Emp", [("Ann", 31)])
        reference.delete("Emp", [("Ann", 31)])
        assert_equivalent(sharded, reference)


class TestCoPartitionedEquivalence:
    """A two-routed-relation view (PR 8 rejected it) vs the unsharded oracle.

    Both fact relations route on the join attribute with compatible
    routings, so the prover admits the layout via co-partitioning; this
    suite is the dynamic half of that certificate — every update sequence
    must keep the sharded warehouse observationally identical to an
    unsharded reference.
    """

    VIEWS = [View("Fulfilled", parse("Orders join Shipments"))]

    INIT = {
        "Orders": Relation(
            ("okey", "item"), [(1, "TV"), (2, "Car"), (5, "Amp")]
        ),
        "Shipments": Relation(
            ("okey", "carrier"), [(1, "UPS"), (5, "DHL"), (7, "FedEx")]
        ),
    }

    OPS = [
        Update.insert("Orders", ("okey", "item"), [(7, "Radio"), (8, "Mic")]),
        Update.insert("Shipments", ("okey", "carrier"), [(2, "UPS")]),
        Update.delete("Orders", ("okey", "item"), [(1, "TV")]),
        Update.insert("Orders", ("okey", "item"), [(3, "Zither")]).compose(
            Update.delete("Shipments", ("okey", "carrier"), [(5, "DHL")])
        ),
        Update.insert("Shipments", ("okey", "carrier"), [(3, "DHL"), (8, "DHL")]),
    ]

    def fact_catalog(self):
        catalog = Catalog()
        catalog.relation("Orders", ("okey", "item"), key=("okey",))
        catalog.relation("Shipments", ("okey", "carrier"), key=("okey",))
        return catalog

    @pytest.mark.parametrize(
        "routings",
        [
            [
                ShardRouting("Orders", "okey", shards=2),
                ShardRouting("Shipments", "okey", shards=2),
            ],
            [
                ShardRouting("Orders", "okey", shards=4),
                ShardRouting("Shipments", "okey", shards=4),
            ],
            [
                ShardRouting("Orders", "okey", boundaries=[3, 6]),
                ShardRouting("Shipments", "okey", boundaries=[3, 6]),
            ],
        ],
        ids=["hash-2", "hash-4", "range-3"],
    )
    def test_matches_unsharded_reference(self, routings):
        catalog = self.fact_catalog()
        sharded = ShardedWarehouse.specify(catalog, self.VIEWS, routings=routings)
        sharded.initialize(self.INIT)
        reference = Warehouse(specify(catalog, self.VIEWS))
        reference.initialize(self.INIT)
        assert sharded.state() == reference.state
        for update in self.OPS:
            sharded.apply(update)
            reference.apply(update)
            assert sharded.state() == reference.state
            for base in ("Orders", "Shipments"):
                assert sharded.reconstruct(base) == reference.reconstruct(base)

    def test_join_rows_actually_cross_shards(self):
        # Guard against a vacuous pass: the layout really splits joining
        # pairs across shards, so union assembly is doing real work.
        catalog = self.fact_catalog()
        routings = [
            ShardRouting("Orders", "okey", shards=2),
            ShardRouting("Shipments", "okey", shards=2),
        ]
        sharded = ShardedWarehouse.specify(catalog, self.VIEWS, routings=routings)
        sharded.initialize(self.INIT)
        per_shard = [
            shard.state["Fulfilled"].rows for shard in sharded.shards
        ]
        assert sum(1 for rows in per_shard if rows) >= 2
        assert sharded.relation("Fulfilled").rows == frozenset(
            rows for shard_rows in per_shard for rows in shard_rows
        )


class TestMVCCCommits:
    def test_snapshot_isolation(self, catalog):
        sharded, _ = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        snap = sharded.snapshot()
        sold = snap.relation("Sold")
        sharded.insert("Sale", [("Amp", "Bob")])
        sharded.delete("Sale", [("TV", "Mary")])
        assert snap.relation("Sold") == sold
        assert sharded.snapshot().version > snap.version

    def test_snapshot_cached_per_version(self, catalog):
        sharded, _ = make_pair(catalog, [ShardRouting("Sale", "item", shards=2)])
        assert sharded.snapshot() is sharded.snapshot()
        sharded.insert("Sale", [("Amp", "Bob")])
        assert sharded.snapshot() is not None

    def test_uncommitted_shard_refresh_invisible_to_readers(self, catalog):
        sharded, _ = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        before = sharded.relation("Sold")
        update = Update.insert("Sale", ("item", "clerk"), [("Amp", "Bob")])
        parts = sharded.split(update)
        for index in sorted(parts):
            sharded.apply_to_shard(index, parts[index])
            # Shard state moved, but nothing is published yet.
            assert sharded.relation("Sold") == before
        sharded.commit(parts, update)
        assert ("Amp", "Bob", 44) in sharded.relation("Sold")

    def test_commit_log_replay_oracle(self, catalog):
        sharded, _ = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        for update in TestShardedWarehouseEquivalence.OPS:
            sharded.apply(update)
        replay = Warehouse(specify(catalog, VIEWS))
        replay.initialize(INIT)
        for record in sharded.commit_log:
            replay.apply(record.update)
        assert replay.state == sharded.state()

    def test_uninitialized_snapshot_rejected(self, catalog):
        sharded = ShardedWarehouse.specify(
            catalog, VIEWS, routings=[ShardRouting("Sale", "item", shards=2)]
        )
        with pytest.raises(WarehouseError, match="not initialized"):
            sharded.snapshot()

    def test_empty_update_is_a_noop(self, catalog):
        sharded, _ = make_pair(catalog, [ShardRouting("Sale", "item", shards=2)])
        version = sharded.version
        assert sharded.apply(Update(())) == {}
        assert sharded.apply_batch([]) == {}
        assert sharded.version == version


class TestObservability:
    def test_per_shard_metrics_and_aggregation(self, catalog):
        sharded, _ = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        sharded.insert("Sale", [("Amp", "Bob")])  # shard 0 only
        metrics = sharded.metrics
        assert metrics.value("warehouse.shards") == 2
        assert metrics.value("warehouse.commits") == 2  # initialize + insert
        assert metrics.value("warehouse.shard_refreshes.0") == 1
        assert metrics.value("warehouse.shard_refreshes.1") == 0
        aggregated = sharded.aggregate_metrics()
        # Shard counters fold flat: total refreshes across all shards.
        assert aggregated.value("warehouse.refreshes") == sum(
            shard.metrics.value("warehouse.refreshes")
            for shard in sharded.shards
        )

    def test_storage_rows_counts_slices(self, catalog):
        sharded, reference = make_pair(
            catalog, [ShardRouting("Sale", "item", boundaries=["M"])]
        )
        # Sliced relations don't double-count; replicated ones do (per shard).
        assert sharded.storage_rows() >= reference.storage_rows()

    def test_enable_tracing_reaches_shards(self, catalog):
        sharded, _ = make_pair(catalog, [ShardRouting("Sale", "item", shards=2)])
        sharded.enable_tracing(capacity=8)
        sharded.insert("Sale", [("Amp", "Bob")])
        assert all(shard.tracer is not None for shard in sharded.shards)
        assert any(
            shard.last_trace("refresh") is not None for shard in sharded.shards
        )


class TestOneAnswerPath:
    """``ShardedWarehouse.answer`` is ``Warehouse.answer`` over the snapshot."""

    def test_armed_sanitizer_checks_sharded_answers(
        self, catalog, monkeypatch, poison_plan
    ):
        monkeypatch.setenv("REPRO_CHECK_QUERIES", "1")
        sharded, _ = make_pair(catalog, [ShardRouting("Sale", "item", shards=4)])
        assert sharded.answer("Emp") == INIT["Emp"]
        # Corrupt the shared plan for Emp: it now reads C_Sale, outside the
        # read set the sanitizer recomputes from the spec.
        poison_plan(sharded.spec, "Emp", "pi[clerk](C_Sale)")
        with pytest.raises(WarehouseError, match="query sanitizer"):
            sharded.answer("Emp")

    def test_answer_leaves_an_answer_root_span(self, catalog):
        sharded, _ = make_pair(catalog, [ShardRouting("Sale", "item", shards=4)])
        sharded.enable_tracing()
        sharded.answer("pi[age](Emp)")
        root = sharded.shards[0].last_trace("answer")
        assert root is not None and root.attributes["query"] == "pi[age](Emp)"
        assert root.find("read") is not None
        assert sharded.aggregate_metrics().value("warehouse.queries") == 1
