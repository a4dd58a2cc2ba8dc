"""The runtime race sanitizer (``REPRO_CHECK_INVARIANTS=1``), end to end.

The sanitizer cross-checks the live refresh protocol against the static
claims of the shard-independence prover: ascending lock order (W0102's
dynamic twin), no overlapping uncommitted refreshes, and actual writes
inside the static footprint. The key regression here: a deliberately
*broken* integrator — locks acquired in descending order — runs silently
without the sanitizer and fails loudly with it.

The environment variable is read once per warehouse construction, so every
test monkeypatches it *before* building the pipeline.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import Catalog, Relation, Update, View, WarehouseError, parse
from repro.analysis.races import RaceTracker
from repro.core.sharding import ShardedWarehouse, ShardRouting
from repro.integrator import AsyncChannel, AsyncConcurrentIntegrator, AsyncSource
from repro.storage.engine import sanitizer_enabled


@pytest.fixture
def catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


VIEWS = [View("Sold", parse("Sale join Emp"))]
ROUTINGS = [ShardRouting("Sale", "item", shards=3)]

INIT = {
    "Sale": Relation(("item", "clerk"), [("TV", "Mary"), ("Car", "Ann")]),
    "Emp": Relation(("clerk", "age"), [("Mary", 23), ("Ann", 31)]),
}


def enable_races(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    assert sanitizer_enabled()


class BackwardLockIntegrator(AsyncConcurrentIntegrator):
    """A deliberately broken worker: shard locks taken in descending order."""

    async def process_batch(self, notifications):
        notifications = list(notifications)
        net = None
        for notification in notifications:
            net = (
                notification.update
                if net is None
                else net.compose(notification.update)
            )
        parts = self.warehouse.split(net)
        indices = sorted(parts, reverse=True)  # the bug under test
        locks = self._shard_locks()
        tracker = self.warehouse.race_tracker
        for index in indices:
            await locks[index].acquire()
            if tracker is not None:
                tracker.note_acquire(index)
        try:
            for index in indices:
                self.warehouse.apply_to_shard(index, parts[index])
            self.warehouse.commit(indices, net)
        finally:
            for index in indices:
                locks[index].release()
                if tracker is not None:
                    tracker.note_release(index)
        return len(notifications)


def multi_shard_update():
    # 'TV' and 'Car' route to different shards of the 3-way hash layout.
    return Update.insert(
        "Sale", ("item", "clerk"), [("TV", "Ann"), ("Car", "Mary")]
    )


def make_integrator(catalog, cls=AsyncConcurrentIntegrator):
    integrator = cls(catalog, VIEWS, routings=ROUTINGS)
    source = AsyncSource(
        "SalesDB", catalog, ("Sale",), channel=AsyncChannel("SalesDB")
    )
    source.load("Sale", INIT["Sale"].rows)
    emp_source = AsyncSource(
        "CompanyDB", catalog, ("Emp",), channel=AsyncChannel("CompanyDB")
    )
    emp_source.load("Emp", INIT["Emp"].rows)
    integrator.initialize([source, emp_source])
    return integrator, source


class TestTrackerWiring:
    def test_tracker_absent_by_default(self, catalog, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        warehouse = ShardedWarehouse.specify(catalog, VIEWS, routings=ROUTINGS)
        assert warehouse.race_tracker is None

    def test_zero_counts_as_disabled(self, catalog, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        warehouse = ShardedWarehouse.specify(catalog, VIEWS, routings=ROUTINGS)
        assert warehouse.race_tracker is None

    def test_tracker_present_when_enabled(self, catalog, monkeypatch):
        enable_races(monkeypatch)
        warehouse = ShardedWarehouse.specify(catalog, VIEWS, routings=ROUTINGS)
        assert warehouse.race_tracker is not None


class TestLockOrder:
    def test_unsorted_lock_acquisition_is_caught(self, catalog, monkeypatch):
        enable_races(monkeypatch)
        integrator, source = make_integrator(catalog, BackwardLockIntegrator)

        async def scenario():
            await source.apply_async(multi_shard_update())
            for notification in source.channel.drain():
                await integrator.process(notification)

        with pytest.raises(WarehouseError, match="ascending order"):
            asyncio.run(scenario())

    def test_broken_integrator_passes_silently_without_sanitizer(
        self, catalog, monkeypatch
    ):
        # The point of the sanitizer: without it, the descending-order bug
        # only matters under contention, so a single-worker run never trips.
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        integrator, source = make_integrator(catalog, BackwardLockIntegrator)

        async def scenario():
            await source.apply_async(multi_shard_update())
            for notification in source.channel.drain():
                await integrator.process(notification)

        asyncio.run(scenario())

    def test_correct_integrator_runs_clean_under_sanitizer(
        self, catalog, monkeypatch
    ):
        enable_races(monkeypatch)
        integrator, source = make_integrator(catalog)

        async def scenario():
            await source.apply_async(multi_shard_update())
            await source.delete_async("Sale", [("TV", "Ann")])
            source.channel.close()
            integrator._channels["CompanyDB"].close()
            await integrator.run()

        asyncio.run(scenario())
        assert integrator.processed == 2


class TestRefreshOverlap:
    def test_overlapping_uncommitted_refreshes_are_caught(self):
        tracker = RaceTracker(2)

        async def first_worker():
            tracker.begin_refresh(0, frozenset({"Sold"}))
            await asyncio.sleep(0.01)

        async def second_worker():
            await asyncio.sleep(0.001)
            tracker.begin_refresh(0, frozenset({"Sold"}))

        async def scenario():
            await asyncio.gather(first_worker(), second_worker())

        with pytest.raises(WarehouseError, match="uncommitted refresh"):
            asyncio.run(scenario())

    def test_same_worker_may_refresh_twice_before_commit(self):
        tracker = RaceTracker(2)
        tracker.begin_refresh(0, frozenset({"Sold"}))
        tracker.begin_refresh(0, frozenset({"C_Sale"}))
        tracker.end_commit([0])
        tracker.begin_refresh(0, frozenset({"Sold"}))

    def test_commit_closes_the_window_for_other_workers(self):
        tracker = RaceTracker(2)

        async def first_worker():
            tracker.begin_refresh(1, frozenset({"Sold"}))
            tracker.end_commit([1])

        async def second_worker():
            await asyncio.sleep(0)
            tracker.begin_refresh(1, frozenset({"Sold"}))
            tracker.end_commit([1])

        async def scenario():
            await asyncio.gather(first_worker(), second_worker())

        asyncio.run(scenario())


class TestWriteFootprints:
    def test_write_outside_static_footprint_is_caught(self):
        tracker = RaceTracker(2)
        with pytest.raises(WarehouseError, match="outside the static write"):
            tracker.check_written(0, frozenset({"Sold"}), ["Sold", "C_Emp"])

    def test_write_inside_footprint_passes(self):
        tracker = RaceTracker(2)
        tracker.check_written(0, frozenset({"Sold", "C_Emp"}), ["Sold"])

    def test_real_refreshes_stay_inside_their_footprints(
        self, catalog, monkeypatch
    ):
        # End to end: apply_to_shard runs begin_refresh + check_written on
        # every real refresh; a full insert/delete mix must pass.
        enable_races(monkeypatch)
        warehouse = ShardedWarehouse.specify(catalog, VIEWS, routings=ROUTINGS)
        warehouse.initialize(INIT)
        warehouse.apply(multi_shard_update())
        warehouse.apply(Update.delete("Sale", ("item", "clerk"), [("TV", "Ann")]))
        warehouse.apply(
            Update.insert("Emp", ("clerk", "age"), [("Zoe", 28)])
        )
        assert warehouse.race_tracker is not None


class TestLockOrderUnit:
    def test_ascending_acquisition_passes(self):
        tracker = RaceTracker(3)
        tracker.note_acquire(0)
        tracker.note_acquire(2)
        tracker.note_release(0)
        tracker.note_release(2)

    def test_descending_acquisition_fails(self):
        tracker = RaceTracker(3)
        tracker.note_acquire(2)
        with pytest.raises(WarehouseError, match="ascending order"):
            tracker.note_acquire(0)

    def test_reacquiring_the_same_shard_fails(self):
        tracker = RaceTracker(3)
        tracker.note_acquire(1)
        with pytest.raises(WarehouseError, match="ascending order"):
            tracker.note_acquire(1)

    def test_release_resets_the_order_constraint(self):
        tracker = RaceTracker(3)
        tracker.note_acquire(2)
        tracker.note_release(2)
        tracker.note_acquire(0)
