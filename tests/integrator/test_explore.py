"""The async integrator's interleavings, explored seed by seed.

Every test runs :func:`tests.integrator.explore.explore` over ``SEEDS``. The
unmutated integrator must be clean on every seed of every scenario; each
mutant below restates ``process_batch`` with one defect in its lock or
commit protocol and must fail on some seed. The mutation table, with each
mutant's failing seeds, is in ``docs/integrator.md`` ("Exploring
interleavings"). ``AllDescending`` is not a mutant: every worker locks in
one (descending) order, so it cannot deadlock.
"""

from __future__ import annotations

import asyncio
from functools import lru_cache, reduce

import pytest

from repro import Update
from repro.integrator import AsyncConcurrentIntegrator

from tests.integrator.explore import copartition, explore, figure1, shared_feed, tpcd

SEEDS = range(20)

#: Refreshing shard 1 with the part that inserts Bob raises.
FAULT = (1, ("Bob", 40))


@lru_cache(maxsize=None)
def scenario(name):
    return {"figure1": figure1, "copartition": copartition,
            "shared_feed": shared_feed, "tpcd": tpcd}[name]()


class MixedLockOrder(AsyncConcurrentIntegrator):
    """(a) The CRM worker takes its shard locks in descending order."""

    def descending(self, source):
        return source == "CRM"

    async def process_batch(self, notifications):
        net = reduce(Update.compose, [n.update for n in notifications])
        parts = self.warehouse.split(net)
        indices = sorted(parts, reverse=self.descending(notifications[0].source))
        locks = self._shard_locks()
        for index in indices:
            await locks[index].acquire()
        try:
            for index in indices:
                self.warehouse.apply_to_shard(index, parts[index])
                await asyncio.sleep(0)
            self.warehouse.commit(indices, net)
        finally:
            for index in indices:
                locks[index].release()
        return len(notifications)


class AllDescending(MixedLockOrder):
    """Every worker locks in descending order: one order, no deadlock."""

    def descending(self, source):
        return True


class TornCommit(AsyncConcurrentIntegrator):
    """(b) The first shard is published alone, with an await before the rest."""

    async def process_batch(self, notifications):
        net = reduce(Update.compose, [n.update for n in notifications])
        parts = self.warehouse.split(net)
        indices = sorted(parts)
        locks = self._shard_locks()
        for index in indices:
            await locks[index].acquire()
        try:
            for index in indices:
                self.warehouse.apply_to_shard(index, parts[index])
            self.warehouse.commit(indices[:1])
            await asyncio.sleep(0)
            self.warehouse.commit(indices, net)
        finally:
            for index in indices:
                locks[index].release()
        return len(notifications)


class EarlyApply(AsyncConcurrentIntegrator):
    """(c) Shards are refreshed before their locks are taken."""

    async def process_batch(self, notifications):
        net = reduce(Update.compose, [n.update for n in notifications])
        parts = self.warehouse.split(net)
        indices = sorted(parts)
        for index in indices:
            self.warehouse.apply_to_shard(index, parts[index])
            await asyncio.sleep(0)
        locks = self._shard_locks()
        for index in indices:
            await locks[index].acquire()
        try:
            self.warehouse.commit(indices, net)
        finally:
            for index in indices:
                locks[index].release()
        return len(notifications)


class NoFinally(AsyncConcurrentIntegrator):
    """(d) The locks are released after the commit, not in a ``finally``."""

    async def process_batch(self, notifications):
        net = reduce(Update.compose, [n.update for n in notifications])
        parts = self.warehouse.split(net)
        indices = sorted(parts)
        locks = self._shard_locks()
        for index in indices:
            await locks[index].acquire()
        for index in indices:
            self.warehouse.apply_to_shard(index, parts[index])
            await asyncio.sleep(0)
        self.warehouse.commit(indices, net)
        for index in indices:
            locks[index].release()
        return len(notifications)


def final_states(outcomes):
    return {frozenset((n, r.rows) for n, r in o.final.items()) for o in outcomes}


@pytest.mark.parametrize(
    "name, integrator",
    [
        ("figure1", AsyncConcurrentIntegrator),
        ("copartition", AsyncConcurrentIntegrator),
        ("tpcd", AsyncConcurrentIntegrator),
        ("tpcd", AllDescending),
    ],
)
def test_proved_layout_is_clean_and_reaches_one_final_state(name, integrator):
    outcomes = [explore(scenario(name), seed, integrator) for seed in SEEDS]
    assert [(o.seed, o.failures) for o in outcomes if o.failures] == []
    assert len(final_states(outcomes)) == 1


def test_refuted_layout_is_clean_but_order_dependent():
    # shared_feed's two feeds share Sale: every schedule replays, but not
    # every schedule ends in the same state.
    outcomes = [explore(scenario("shared_feed"), seed) for seed in SEEDS]
    assert [(o.seed, o.failures) for o in outcomes if o.failures] == []
    assert len(final_states(outcomes)) >= 2


def test_rejected_batch_publishes_nothing_on_every_seed():
    # Shard 1 rejects CompanyDB's batch after shard 0 took it: the rollback
    # keeps shard 0's half out of the next commit, and the locks come back.
    outcomes = [explore(scenario("figure1"), seed, fault=FAULT) for seed in SEEDS]
    assert [(o.seed, o.failures) for o in outcomes if o.failures] == []


@pytest.mark.parametrize(
    "integrator, name, fault, symptom",
    [
        (MixedLockOrder, "tpcd", None, "deadlock"),
        (TornCommit, "figure1", None, "diverges from the commit-log replay"),
        (EarlyApply, "figure1", None, "diverges from the commit-log replay"),
        (NoFinally, "figure1", FAULT, "deadlock"),
    ],
    ids=["a-mixed-lock-order", "b-torn-commit", "c-early-apply", "d-no-finally"],
)
def test_mutant_is_found(integrator, name, fault, symptom):
    found = next(
        (o for o in (explore(scenario(name), s, integrator, fault) for s in SEEDS) if o.failures),
        None,
    )
    assert found is not None, f"{integrator.__name__} passes every seed"
    assert symptom in found.failures[0]
