"""The concurrent integrator: async sources, sharded warehouse, snapshots.

This module lifts the Figure 1 pipeline onto ``asyncio``:

* :class:`AsyncChannel` — a per-source FIFO with bounded capacity.
  Publishing is available both synchronously (:meth:`AsyncChannel.publish`,
  source-compatible, fails fast when full) and asynchronously
  (:meth:`AsyncChannel.send`, suspends until space frees up —
  *backpressure*: a slow integrator throttles its sources instead of
  queueing unboundedly). Delivery lag (publish → deliver residence time) is
  measured per notification.

* :class:`AsyncSource` — a :class:`~repro.integrator.source.Source` whose
  async mutators report through :meth:`AsyncChannel.send` after an optional
  injected delay, modelling real delivery lag: by the time the integrator
  sees the notification, the source has long since moved on.

* :class:`AsyncConcurrentIntegrator` — the paper's complement integrator
  over a :class:`~repro.core.sharding.ShardedWarehouse`. One worker per
  source channel folds everything pending into a net batch with
  ``Update.compose``, locks exactly the shards the batch routes to (in
  sorted order — deadlock-free), refreshes them with explicit suspension
  points between shards, and publishes the batch with one synchronous MVCC
  commit. Readers resolve :meth:`AsyncConcurrentIntegrator.snapshot` and
  keep a consistent image no matter how refreshes interleave.

Why correctness survives the concurrency: Theorem 4.1 makes each fold
self-contained (warehouse relations + the notification, no source reads),
so delivery lag cannot poison a refresh; different sources own disjoint
relations, so their net batches commute and any interleaving the locks
admit serializes to the commit-log order; and the commit protocol never
exposes a half-applied multi-shard batch. The seeded interleaving explorer
(``tests/integrator/explore.py``) checks exactly this, schedule by
schedule, by replaying the commit log through a synchronous reference
warehouse.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import WarehouseError
from repro.schema.catalog import Catalog
from repro.storage.relation import Relation
from repro.storage.update import Update
from repro.views.psj import View
from repro.core.sharding import ShardedSnapshot, ShardedWarehouse, ShardRouting
from repro.integrator.channel import Notification
from repro.integrator.integrator import _source_state
from repro.integrator.source import Source


class AsyncChannel:
    """A per-source FIFO with bounded capacity and async delivery.

    ``capacity=0`` means unbounded. With a bound, :meth:`publish` (the
    synchronous, source-compatible path) raises when full, while
    :meth:`send` suspends the producer until the integrator drains —
    backpressure instead of unbounded queueing. :meth:`close` ends the
    stream: pending notifications still deliver, then :meth:`get` returns
    ``None`` and async iteration stops.

    The synchronous read API (:meth:`poll`, :meth:`drain`, ``pending()``)
    mirrors :class:`~repro.integrator.channel.Channel`, so the channel also
    works under the synchronous integrators in tests.
    """

    def __init__(self, name: str = "", capacity: int = 0) -> None:
        if capacity < 0:
            raise WarehouseError(f"channel capacity must be non-negative: {capacity}")
        self.name = name
        self.capacity = capacity
        self._queue: Deque[Tuple[Notification, float]] = deque()
        self._sequence = itertools.count(1)
        self._delivered = 0
        self._closed = False
        self._getters: Deque["asyncio.Future"] = deque()
        self._putters: Deque["asyncio.Future"] = deque()
        #: Times an async ``send`` had to wait for space (backpressure events).
        self.backpressure_waits = 0
        #: Optional callable observing each delivery's lag in seconds.
        self.lag_observer: Optional[Callable[[float], None]] = None

    # -- producing -----------------------------------------------------

    def publish(self, source: str, update: Update) -> Notification:
        """Append a notification synchronously (fails fast when full)."""
        if self._closed:
            raise WarehouseError(f"channel {self.name!r} is closed")
        if self.capacity and len(self._queue) >= self.capacity:
            raise WarehouseError(
                f"channel {self.name!r} is full (capacity {self.capacity}); "
                "use 'await send(...)' for backpressure"
            )
        notification = Notification(source, next(self._sequence), update)
        self._queue.append((notification, time.monotonic()))
        self._wake(self._getters)
        return notification

    async def send(self, source: str, update: Update) -> Notification:
        """Append a notification, suspending while the channel is full."""
        while (
            self.capacity
            and len(self._queue) >= self.capacity
            and not self._closed
        ):
            self.backpressure_waits += 1
            await self._wait(self._putters)
        return self.publish(source, update)

    def close(self) -> None:
        """End the stream: no more publishes; drained getters see ``None``."""
        self._closed = True
        self._wake(self._getters)
        self._wake(self._putters)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    # -- consuming -----------------------------------------------------

    def pending(self) -> int:
        """Number of undelivered notifications."""
        return len(self._queue)

    def delivered(self) -> int:
        """Number of notifications delivered so far."""
        return self._delivered

    def poll(self) -> Optional[Notification]:
        """Deliver the oldest pending notification, or ``None``."""
        if not self._queue:
            return None
        notification, published = self._queue.popleft()
        self._delivered += 1
        if self.lag_observer is not None:
            self.lag_observer(time.monotonic() - published)
        self._wake(self._putters)
        return notification

    def drain(self, limit: Optional[int] = None) -> List[Notification]:
        """Deliver up to ``limit`` notifications pending *now* (all by default)."""
        if limit is not None and limit < 0:
            raise WarehouseError(f"drain limit must be non-negative: {limit}")
        count = len(self._queue)
        if limit is not None:
            count = min(count, limit)
        out: List[Notification] = []
        for _ in range(count):
            notification = self.poll()
            assert notification is not None
            out.append(notification)
        return out

    async def get(self) -> Optional[Notification]:
        """Await the next notification; ``None`` once closed and drained."""
        while not self._queue:
            if self._closed:
                return None
            await self._wait(self._getters)
        return self.poll()

    async def next_batch(self, limit: Optional[int] = None) -> Optional[List[Notification]]:
        """Await at least one notification, then take everything pending.

        The pending count is snapshotted after the first delivery, so a
        producer racing the drain cannot extend the batch unboundedly.
        Returns ``None`` once the channel is closed and drained.
        """
        first = await self.get()
        if first is None:
            return None
        batch = [first]
        if limit is None:
            batch.extend(self.drain())
        elif limit > 1:
            batch.extend(self.drain(limit - 1))
        return batch

    def __aiter__(self) -> "AsyncChannel":
        return self

    async def __anext__(self) -> Notification:
        notification = await self.get()
        if notification is None:
            raise StopAsyncIteration
        return notification

    def __iter__(self):
        """Synchronous drain-iteration (snapshot semantics, like Channel)."""
        for _ in range(len(self._queue)):
            notification = self.poll()
            assert notification is not None
            yield notification

    # -- waiter plumbing ----------------------------------------------

    @staticmethod
    async def _wait(waiters: "Deque[asyncio.Future]") -> None:
        future = asyncio.get_running_loop().create_future()
        waiters.append(future)
        try:
            await future
        finally:
            if not future.done():
                future.cancel()
            try:
                waiters.remove(future)
            except ValueError:
                pass

    @staticmethod
    def _wake(waiters: "Deque[asyncio.Future]") -> None:
        for future in waiters:
            if not future.done():
                future.set_result(None)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"AsyncChannel({self.name!r}, {len(self._queue)} pending, "
            f"{self._delivered} delivered, {state})"
        )


class AsyncSource(Source):
    """An autonomous source whose async mutators report with delivery lag.

    The synchronous :class:`~repro.integrator.source.Source` API still
    works (its ``apply`` publishes immediately via the channel's sync
    path); the ``*_async`` mutators apply locally *first*, then suspend for
    ``delay`` seconds before reporting through :meth:`AsyncChannel.send` —
    by delivery time the source state has moved on, which is exactly the
    window the naive integrator trips over and Theorem 4.1 does not.
    """

    def __init__(
        self,
        name: str,
        catalog: Catalog,
        relations: Sequence[str],
        channel: Optional[AsyncChannel] = None,
        delay: float = 0.0,
    ) -> None:
        if delay < 0:
            raise WarehouseError(f"source {name!r}: delay must be non-negative")
        super().__init__(
            name,
            catalog,
            relations,
            channel if channel is not None else AsyncChannel(name=name),
        )
        self.delay = delay

    async def apply_async(self, update: Update) -> Update:
        """Apply locally, lag, then report the effective update."""
        for delta in update:
            self._require_owned(delta.relation)
        effective = self.database.apply(update)
        if not effective.is_empty():
            if self.delay:
                await asyncio.sleep(self.delay)
            await self.channel.send(self.name, effective)
        return effective

    async def insert_async(self, relation: str, rows) -> Update:
        """Insert rows; report asynchronously after the configured lag."""
        self._require_owned(relation)
        attrs = self._catalog[relation].attributes
        return await self.apply_async(Update.insert(relation, attrs, rows))

    async def delete_async(self, relation: str, rows) -> Update:
        """Delete rows; report asynchronously after the configured lag."""
        self._require_owned(relation)
        attrs = self._catalog[relation].attributes
        return await self.apply_async(Update.delete(relation, attrs, rows))

    def __repr__(self) -> str:
        return (
            f"AsyncSource({self.name!r}, relations={list(self.relations)}, "
            f"delay={self.delay})"
        )


class AsyncConcurrentIntegrator:
    """Complement integrator over a sharded warehouse, one worker per source.

    Workers fold each channel's pending notifications into one net update
    (``Update.compose``), then refresh only the shards that update routes
    to, holding those shards' locks for the whole fold-refresh-commit
    cycle. Locks are acquired in sorted shard order, so overlapping batches
    serialize without deadlock while disjoint batches proceed in parallel.
    An explicit ``await asyncio.sleep(0)`` between per-shard refreshes
    forces scheduling points mid-batch — adversarial interleavings in tests
    exercise exactly the window the MVCC commit protocol protects.
    """

    def __init__(
        self,
        catalog: Catalog,
        views: Sequence[View],
        routings: Sequence[ShardRouting] = (),
        shards: Optional[int] = None,
        **specify_options,
    ) -> None:
        self.warehouse = ShardedWarehouse.specify(
            catalog, views, routings=routings, shards=shards, **specify_options
        )
        self._channels: Dict[str, AsyncChannel] = {}
        self._locks: Optional[List["asyncio.Lock"]] = None
        self._processed = 0

    # -- setup ---------------------------------------------------------

    def attach(self, source: Source) -> None:
        """Supervise a source's channel (one drain worker in :meth:`run`)."""
        channel = source.channel
        if not isinstance(channel, AsyncChannel):
            raise WarehouseError(
                f"source {source.name!r} must report through an AsyncChannel"
            )
        if source.name in self._channels:
            raise WarehouseError(f"source {source.name!r} attached twice")
        metrics = self.metrics
        channel.lag_observer = metrics.histogram(
            "integrator.delivery_lag_seconds"
        ).observe
        self._channels[source.name] = channel

    def initialize(self, sources: Sequence[Source]) -> None:
        """The initial extract, plus channel attachment — the only source read."""
        self.warehouse.initialize(_source_state(sources))
        for source in sources:
            self.attach(source)

    def _shard_locks(self) -> List["asyncio.Lock"]:
        # Locks are created lazily inside the running loop (pre-3.10
        # asyncio primitives bind their event loop at construction).
        if self._locks is None:
            self._locks = [
                asyncio.Lock() for _ in range(self.warehouse.router.shards)
            ]
        return self._locks

    # -- folding -------------------------------------------------------

    async def process(self, notification: Notification) -> None:
        """Fold one reported update in — no source access."""
        await self.process_batch((notification,))

    async def process_batch(self, notifications: Sequence[Notification]) -> int:
        """Fold a batch as one net update under the touched shards' locks.

        A batch that raises is rolled back on the shards it already
        refreshed (:meth:`ShardedWarehouse.rollback`): it publishes nothing.
        A batch cancelled while it waits for a lock releases exactly the
        locks it holds and rolls back nothing: it has refreshed no shard,
        and a shard it never locked may hold another batch's refresh.
        """
        notifications = list(notifications)
        if not notifications:
            return 0
        net: Optional[Update] = None
        for notification in notifications:
            net = (
                notification.update
                if net is None
                else net.compose(notification.update)
            )
        assert net is not None
        metrics = self.metrics
        parts = self.warehouse.split(net)
        if parts:
            indices = sorted(parts)
            locks = self._shard_locks()
            held: List[int] = []
            refreshed: List[int] = []
            try:
                for index in indices:
                    await locks[index].acquire()
                    held.append(index)
                for index in indices:
                    refreshed.append(index)
                    self.warehouse.apply_to_shard(index, parts[index])
                    # Scheduling point between shard refreshes: lets other
                    # workers and readers run mid-batch, which is exactly
                    # what the commit protocol must tolerate.
                    await asyncio.sleep(0)
                self.warehouse.commit(indices, net)
            except BaseException:
                self.warehouse.rollback(refreshed)
                raise
            finally:
                for index in held:
                    locks[index].release()
        self._processed += len(notifications)
        metrics.counter("integrator.notifications").inc(len(notifications))
        for notification in notifications:
            for delta in notification.update:
                metrics.counter(f"integrator.updates.{delta.relation}").inc()
        metrics.counter("integrator.batches").inc()
        metrics.histogram("integrator.batch_size").observe(len(notifications))
        return len(notifications)

    async def _drain_loop(
        self, name: str, channel: AsyncChannel, max_batch: Optional[int]
    ) -> None:
        gauge = self.metrics.gauge(f"integrator.channel_pending.{name}")
        while True:
            batch = await channel.next_batch(max_batch)
            if batch is None:
                gauge.set(0)
                return
            await self.process_batch(batch)
            gauge.set(channel.pending())

    async def run(self, max_batch: Optional[int] = None) -> int:
        """Drain every attached channel until all are closed.

        One concurrent worker per source channel; returns the total number
        of notifications processed by this call.
        """
        if not self._channels:
            raise WarehouseError("no sources attached; call initialize()/attach()")
        before = self._processed
        await asyncio.gather(
            *(
                self._drain_loop(name, channel, max_batch)
                for name, channel in self._channels.items()
            )
        )
        return self._processed - before

    # -- reading -------------------------------------------------------

    def snapshot(self) -> ShardedSnapshot:
        """The newest committed cross-shard snapshot (MVCC read handle)."""
        return self.warehouse.snapshot()

    def relation(self, name: str) -> Relation:
        """The assembled global image of one warehouse relation."""
        return self.warehouse.relation(name)

    @property
    def processed(self) -> int:
        """Notifications processed so far."""
        return self._processed

    @property
    def metrics(self):
        """The sharded warehouse's cross-shard metrics registry.

        The integrator's own family lives here: ``integrator.notifications``,
        ``integrator.batches``, ``integrator.batch_size``, per-relation
        ``integrator.updates.<relation>``, per-source
        ``integrator.channel_pending.<source>`` gauges, and the
        ``integrator.delivery_lag_seconds`` histogram.
        """
        return self.warehouse.metrics

    def __repr__(self) -> str:
        return (
            f"AsyncConcurrentIntegrator({len(self._channels)} sources, "
            f"{self.warehouse.router.shards} shards, "
            f"{self._processed} notifications processed)"
        )
