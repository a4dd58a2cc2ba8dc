"""The concurrency correctness harness for the async integrator.

The gate this suite enforces (ROADMAP item 3): the complement-based
integrator must stay anomaly-free under adversarial interleavings, injected
delivery lag, and shard-concurrent refresh. Every scenario cross-checks the
async pipeline against the differential oracle — replaying the sharded
warehouse's commit log through a synchronous reference warehouse and
comparing states version by version — while the naive integrator, fed the
same schedules, still diverges exactly as Section 1 predicts.

All tests drive the event loop with ``asyncio.run`` directly (no plugin
dependency); asyncio's deterministic cooperative scheduling makes the
interleavings reproducible.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Tuple

import pytest

from repro import Catalog, Relation, Update, View, WarehouseError, parse
from repro.algebra.evaluator import evaluate
from repro.core.complement import specify
from repro.core.sharding import ShardRouting
from repro.core.warehouse import Warehouse
from repro.integrator import (
    AsyncChannel,
    AsyncConcurrentIntegrator,
    AsyncSource,
    Channel,
    NaiveIntegrator,
    Notification,
    Source,
)


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


VIEWS = [View("Sold", parse("Sale join Emp"))]
SALE_ROWS = [("TV", "Mary")]
EMP_ROWS = [("Mary", 23), ("Ann", 31)]


def make_async_pipeline(catalog, delay_sales=0.0, delay_company=0.0, capacity=0):
    sales = AsyncSource(
        "SalesDB",
        catalog,
        ("Sale",),
        channel=AsyncChannel("SalesDB", capacity=capacity),
        delay=delay_sales,
    )
    company = AsyncSource(
        "CompanyDB",
        catalog,
        ("Emp",),
        channel=AsyncChannel("CompanyDB", capacity=capacity),
        delay=delay_company,
    )
    sales.load("Sale", SALE_ROWS)
    company.load("Emp", EMP_ROWS)
    return sales, company


def reference_replay(catalog, commit_log) -> Dict[int, Dict[str, Relation]]:
    """The differential oracle: states by version from a sync replay."""
    reference = Warehouse(specify(catalog, VIEWS))
    reference.initialize(
        {
            "Sale": Relation(("item", "clerk"), SALE_ROWS),
            "Emp": Relation(("clerk", "age"), EMP_ROWS),
        }
    )
    states = {1: dict(reference.state)}  # version 1 = the initial extract
    for record in commit_log:
        reference.apply(record.update)
        states[record.version] = dict(reference.state)
    return states


class TestAsyncChannel:
    def test_sync_publish_poll_roundtrip(self):
        channel = AsyncChannel("s")
        update = Update.insert("R", ("x",), [(1,)])
        notification = channel.publish("s", update)
        assert notification.sequence == 1
        assert channel.pending() == 1
        assert channel.poll() is notification
        assert channel.poll() is None
        assert channel.delivered() == 1

    def test_bounded_publish_fails_fast(self):
        channel = AsyncChannel("s", capacity=1)
        channel.publish("s", Update.insert("R", ("x",), [(1,)]))
        with pytest.raises(WarehouseError, match="full"):
            channel.publish("s", Update.insert("R", ("x",), [(2,)]))

    def test_negative_capacity_rejected(self):
        with pytest.raises(WarehouseError):
            AsyncChannel("s", capacity=-1)

    def test_drain_validates_limit_and_snapshots(self):
        channel = AsyncChannel("s")
        for k in range(3):
            channel.publish("s", Update.insert("R", ("x",), [(k,)]))
        with pytest.raises(WarehouseError, match="non-negative"):
            channel.drain(limit=-1)
        assert len(channel.drain(limit=2)) == 2
        assert channel.pending() == 1

    def test_send_backpressure_suspends_until_drained(self):
        async def scenario():
            channel = AsyncChannel("s", capacity=2)
            sent: List[int] = []

            async def producer():
                for k in range(6):
                    await channel.send("s", Update.insert("R", ("x",), [(k,)]))
                    sent.append(k)
                channel.close()

            async def consumer():
                got = []
                while True:
                    # Give the producer every chance to run ahead first.
                    for _ in range(3):
                        await asyncio.sleep(0)
                    notification = await channel.get()
                    if notification is None:
                        return got
                    assert channel.pending() <= 2  # the bound held throughout
                    got.append(notification)

            got, _ = await asyncio.gather(consumer(), producer())
            assert len(got) == 6
            assert [n.sequence for n in got] == sorted(n.sequence for n in got)
            assert channel.backpressure_waits > 0

        asyncio.run(scenario())

    def test_close_ends_async_iteration_after_drain(self):
        async def scenario():
            channel = AsyncChannel("s")
            channel.publish("s", Update.insert("R", ("x",), [(1,)]))
            channel.close()
            with pytest.raises(WarehouseError, match="closed"):
                channel.publish("s", Update.insert("R", ("x",), [(2,)]))
            seen = [notification async for notification in channel]
            assert len(seen) == 1
            assert await channel.get() is None

        asyncio.run(scenario())

    def test_next_batch_folds_everything_pending(self):
        async def scenario():
            channel = AsyncChannel("s")
            for k in range(5):
                channel.publish("s", Update.insert("R", ("x",), [(k,)]))
            batch = await channel.next_batch()
            assert len(batch) == 5
            channel.publish("s", Update.insert("R", ("x",), [(9,)]))
            limited = await channel.next_batch(limit=1)
            assert len(limited) == 1
            channel.close()
            assert await channel.next_batch() is None

        asyncio.run(scenario())


class TestAsyncSource:
    def test_async_mutators_report_after_delay(self, catalog):
        async def scenario():
            sales, _ = make_async_pipeline(catalog, delay_sales=0.001)
            await sales.insert_async("Sale", [("Amp", "Ann")])
            # The local database moved *before* the notification delivered.
            assert ("Amp", "Ann") in sales.relation("Sale")
            assert sales.channel.pending() == 1

        asyncio.run(scenario())

    def test_noop_async_updates_not_published(self, catalog):
        async def scenario():
            sales, _ = make_async_pipeline(catalog)
            await sales.insert_async("Sale", SALE_ROWS)  # already present
            assert sales.channel.pending() == 0

        asyncio.run(scenario())

    def test_sync_source_api_still_works(self, catalog):
        sales, _ = make_async_pipeline(catalog)
        sales.insert("Sale", [("Amp", "Ann")])
        assert sales.channel.pending() == 1

    def test_negative_delay_rejected(self, catalog):
        with pytest.raises(WarehouseError):
            AsyncSource("S", catalog, ("Sale",), delay=-0.5)


class TestConcurrentIntegrator:
    def test_requires_async_channels_and_sources(self, catalog):
        integrator = AsyncConcurrentIntegrator(catalog, VIEWS, shards=2)
        sync_source = Source("S", catalog, ("Sale",), Channel())
        with pytest.raises(WarehouseError, match="AsyncChannel"):
            integrator.attach(sync_source)
        with pytest.raises(WarehouseError, match="no sources"):
            asyncio.run(integrator.run())

    def test_burst_folds_into_one_net_batch(self, catalog):
        async def scenario():
            sales, company = make_async_pipeline(catalog)
            integrator = AsyncConcurrentIntegrator(
                catalog,
                VIEWS,
                routings=[ShardRouting("Sale", "item", boundaries=["M"])],
            )
            integrator.initialize([sales, company])
            # Publish a burst before the integrator wakes: everything
            # pending folds into a single composed refresh.
            for k in range(4):
                sales.insert("Sale", [(f"item{k}", "Mary")])
            company.channel.close()
            sales.channel.close()
            processed = await integrator.run()
            assert processed == 4
            histogram = integrator.metrics.get("integrator.batch_size")
            assert histogram.maximum == 4
            assert integrator.metrics.value("integrator.batches") == 1
            return integrator

        integrator = asyncio.run(scenario())
        assert integrator.relation("Sold").rows == frozenset(
            {(f"item{k}", "Mary", 23) for k in range(4)} | {("TV", "Mary", 23)}
        )

    def test_lagged_sources_sharded_refresh_matches_live_state(self, catalog):
        """The headline gate: 2 shards, injected lag, concurrent sources."""

        async def scenario():
            sales, company = make_async_pipeline(
                catalog, delay_sales=0.001, delay_company=0.002, capacity=3
            )
            integrator = AsyncConcurrentIntegrator(
                catalog,
                VIEWS,
                routings=[ShardRouting("Sale", "item", boundaries=["M"])],
            )
            integrator.initialize([sales, company])

            async def sales_script():
                for k in range(12):
                    await sales.insert_async(
                        "Sale", [(f"i{k:02d}", "Mary" if k % 2 else "Ann")]
                    )
                await sales.delete_async("Sale", [("TV", "Mary")])
                sales.channel.close()

            async def company_script():
                await company.insert_async("Emp", [("Zoe", 40)])
                await company.delete_async("Emp", [("Ann", 31)])
                await company.insert_async("Emp", [("Ann", 32)])
                company.channel.close()

            await asyncio.gather(
                sales_script(), company_script(), integrator.run()
            )
            return sales, company, integrator

        sales, company, integrator = asyncio.run(scenario())
        live = {
            "Sale": sales.relation("Sale"),
            "Emp": company.relation("Emp"),
        }
        # Despite lag and interleaved shard refreshes, the assembled
        # warehouse equals direct evaluation over the final source state...
        assert integrator.relation("Sold") == evaluate(
            VIEWS[0].definition, live
        )
        for base in ("Sale", "Emp"):
            assert integrator.warehouse.reconstruct(base) == live[base]
        # ...and the commit log replays to the same final state.
        states = reference_replay(catalog, integrator.warehouse.commit_log)
        final_version = integrator.warehouse.version
        assert states[final_version] == integrator.warehouse.state()
        assert integrator.metrics.get(
            "integrator.delivery_lag_seconds"
        ).count == integrator.processed

    def test_concurrent_readers_never_see_torn_batches(self, catalog):
        """Readers sample snapshots mid-run; every image must equal the
        differential oracle's state at that exact version."""

        async def scenario():
            sales, company = make_async_pipeline(catalog, delay_sales=0.001)
            integrator = AsyncConcurrentIntegrator(
                catalog,
                VIEWS,
                routings=[ShardRouting("Sale", "item", boundaries=["D", "S"])],
            )
            integrator.initialize([sales, company])
            observed: List[Tuple[int, Dict[str, Relation]]] = []
            done = asyncio.Event()

            async def reader():
                while not done.is_set():
                    snapshot = integrator.snapshot()
                    # Assembling reads every shard image — if a commit were
                    # torn, this is where it would show.
                    observed.append((snapshot.version, snapshot.state()))
                    await asyncio.sleep(0)

            async def sales_script():
                for k in range(10):
                    await sales.insert_async("Sale", [(f"i{k}", "Mary")])
                    if k % 3 == 0:
                        await sales.delete_async("Sale", [(f"i{k}", "Mary")])
                sales.channel.close()

            async def company_script():
                for name, age in (("Zoe", 40), ("Ann", 31), ("Bob", 44)):
                    await company.delete_async("Emp", [(name, age)])
                    await company.insert_async("Emp", [(name, age + 1)])
                company.channel.close()

            async def drive():
                await asyncio.gather(
                    sales_script(), company_script(), integrator.run()
                )
                done.set()

            await asyncio.gather(drive(), reader())
            return integrator, observed

        integrator, observed = asyncio.run(scenario())
        assert observed, "reader never sampled a snapshot"
        states = reference_replay(catalog, integrator.warehouse.commit_log)
        for version, image in observed:
            assert image == states[version], (
                f"snapshot at version {version} does not match the "
                "differential oracle's replayed state"
            )

    def test_adversarial_phantom_schedule_complement_vs_naive(self, catalog):
        """The permanent-phantom interleaving, concurrent edition.

        Sources race ahead of delivery (lag), the complement integrator
        folds late batches into a 2-shard warehouse — and stays exact.
        The naive integrator processing the identical notification stream
        against live sources keeps the phantom forever.
        """

        def ops(sales_op, company_op):
            return [
                lambda: sales_op("insert", [("TV", "Zoe")]),
                lambda: company_op("insert", [("Zoe", 40)]),
                lambda: sales_op("delete", [("TV", "Zoe")]),
                lambda: company_op("delete", [("Zoe", 40)]),
            ]

        async def complement_run():
            sales = AsyncSource(
                "SalesDB", catalog, ("Sale",),
                channel=AsyncChannel("SalesDB"), delay=0.001,
            )
            company = AsyncSource(
                "CompanyDB", catalog, ("Emp",),
                channel=AsyncChannel("CompanyDB"), delay=0.001,
            )
            sales.load("Sale", [])
            company.load("Emp", [])
            integrator = AsyncConcurrentIntegrator(
                catalog, VIEWS, routings=[ShardRouting("Sale", "item", shards=2)]
            )
            integrator.initialize([sales, company])

            def sales_op(kind, rows):
                method = (
                    sales.insert_async if kind == "insert" else sales.delete_async
                )
                return method("Sale", rows)

            def company_op(kind, rows):
                method = (
                    company.insert_async
                    if kind == "insert"
                    else company.delete_async
                )
                return method("Emp", rows)

            async def script():
                for op in ops(sales_op, company_op):
                    await op()
                sales.channel.close()
                company.channel.close()

            await asyncio.gather(script(), integrator.run())
            return integrator

        integrator = asyncio.run(complement_run())
        # Correct final Sold is empty; the complement integrator gets there.
        assert integrator.relation("Sold").rows == frozenset()

        # Same four ops, same "publish now, process later" schedule, naive
        # integrator: the phantom join partner is never un-joined.
        channel = Channel()
        sales = Source("SalesDB", catalog, ("Sale",), channel)
        company = Source("CompanyDB", catalog, ("Emp",), channel)
        sales.load("Sale", [])
        company.load("Emp", [])
        naive = NaiveIntegrator(catalog, VIEWS, [sales, company])
        naive.initialize()
        sales.insert("Sale", [("TV", "Zoe")])
        company.insert("Emp", [("Zoe", 40)])
        naive.process_all(channel)  # lag: both already applied at sources
        sales.delete("Sale", [("TV", "Zoe")])
        company.delete("Emp", [("Zoe", 40)])
        naive.process_all(channel)
        assert ("TV", "Zoe", 40) in naive.relation("Sold")  # diverged


class TestCoPartitionedConcurrent:
    """E16 oracle gate for the co-partitioning admission.

    Two routed relations joined on their shared routing attribute — the
    layout PR 8 rejected and the sharding prover now admits — driven by two
    concurrent lagged sources. The commit-log replay oracle must hold: every
    published version equals a synchronous unsharded warehouse fed the same
    net batches in serialization order.
    """

    def fact_catalog(self):
        catalog = Catalog()
        catalog.relation("Orders", ("okey", "item"), key=("okey",))
        catalog.relation("Shipments", ("okey", "carrier"), key=("okey",))
        return catalog

    def test_commit_log_replay_oracle(self):
        catalog = self.fact_catalog()
        views = [View("Fulfilled", parse("Orders join Shipments"))]
        init_orders = [(1, "TV"), (2, "Car"), (5, "Amp")]
        init_shipments = [(1, "UPS"), (5, "DHL")]

        async def scenario():
            orders = AsyncSource(
                "OrdersDB",
                catalog,
                ("Orders",),
                channel=AsyncChannel("OrdersDB", capacity=2),
                delay=0.001,
            )
            shipments = AsyncSource(
                "ShipmentsDB",
                catalog,
                ("Shipments",),
                channel=AsyncChannel("ShipmentsDB", capacity=2),
                delay=0.002,
            )
            orders.load("Orders", init_orders)
            shipments.load("Shipments", init_shipments)
            integrator = AsyncConcurrentIntegrator(
                catalog,
                views,
                routings=[
                    ShardRouting("Orders", "okey", shards=2),
                    ShardRouting("Shipments", "okey", shards=2),
                ],
            )
            integrator.initialize([orders, shipments])

            async def orders_script():
                for k in range(6, 14):
                    await orders.insert_async("Orders", [(k, f"item{k}")])
                await orders.delete_async("Orders", [(1, "TV")])
                orders.channel.close()

            async def shipments_script():
                for k in (2, 6, 9, 13):
                    await shipments.insert_async("Shipments", [(k, "UPS")])
                await shipments.delete_async("Shipments", [(5, "DHL")])
                shipments.channel.close()

            await asyncio.gather(
                orders_script(), shipments_script(), integrator.run()
            )
            return orders, shipments, integrator

        orders, shipments, integrator = asyncio.run(scenario())
        # The assembled view equals direct evaluation over live sources...
        live = {
            "Orders": orders.relation("Orders"),
            "Shipments": shipments.relation("Shipments"),
        }
        assert integrator.relation("Fulfilled") == evaluate(
            views[0].definition, live
        )
        # ...and every committed version replays through an unsharded
        # reference warehouse (the E16 differential oracle).
        reference = Warehouse(specify(catalog, views))
        reference.initialize(
            {
                "Orders": Relation(("okey", "item"), init_orders),
                "Shipments": Relation(("okey", "carrier"), init_shipments),
            }
        )
        states = {1: dict(reference.state)}
        for record in integrator.warehouse.commit_log:
            reference.apply(record.update)
            states[record.version] = dict(reference.state)
        assert states[integrator.warehouse.version] == integrator.warehouse.state()


class TestCancelledBatch:
    """A batch cancelled while it waits for a shard lock."""

    def test_cancelled_lock_wait_releases_its_locks_and_reverts_nothing(
        self, catalog
    ):
        attrs = ("item", "clerk")

        async def scenario():
            integrator = AsyncConcurrentIntegrator(
                catalog, VIEWS, routings=[ShardRouting("Sale", "item", boundaries=["M"])]
            )
            warehouse = integrator.warehouse
            warehouse.initialize({
                "Sale": Relation(attrs, SALE_ROWS), "Emp": Relation(("clerk", "age"), EMP_ROWS),
            })
            locks = integrator._shard_locks()
            # Another batch holds shard 1, its refresh in flight.
            await locks[1].acquire()
            other = Update.insert("Sale", attrs, [("Zip", "Mary")])
            warehouse.apply_to_shard(1, warehouse.split(other)[1])
            in_flight = warehouse.shards[1].state
            # This batch spans shards 0 and 1: it takes lock 0, waits for 1.
            both = Update.insert("Sale", attrs, [("Amp", "Ann"), ("TV", "Ann")])
            task = asyncio.ensure_future(
                integrator.process_batch([Notification("SalesDB", 1, both)])
            )
            for _ in range(5):
                await asyncio.sleep(0)
            assert locks[0].locked() and not task.done()
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert not locks[0].locked()
            assert warehouse.shards[1].state is in_flight
            warehouse.commit([1], other)
            locks[1].release()
            only_0 = Update.insert("Sale", attrs, [("Amp", "Mary")])
            await asyncio.wait_for(
                integrator.process_batch([Notification("SalesDB", 2, only_0)]), 1.0
            )
            return warehouse

        warehouse = asyncio.run(scenario())
        assert ("Zip", "Mary", 23) in warehouse.relation("Sold")
        assert ("TV", "Ann", 31) not in warehouse.relation("Sold")
        states = reference_replay(catalog, warehouse.commit_log)
        assert states[warehouse.version] == warehouse.state()
