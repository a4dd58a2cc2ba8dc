"""A seeded scheduler that explores the async integrator's interleavings.

:class:`SeededLoop` is an asyncio event loop that runs one ready callback per
step, picked by a seeded random generator, so one seed is one reproducible
schedule of every task in a run: the source scripts, one drain worker per
source and a reader, which snapshots at each of its steps until the
workers are done. :func:`explore` drives an
:class:`~repro.integrator.AsyncConcurrentIntegrator` (or a subclass) through
one :class:`Scenario` under one seed and checks the schedule against the
oracle the sharding prover's witnesses replay against:

* every ``(version, state)`` the reader observes equals the replay of the
  commit log through an unsharded :class:`~repro.core.warehouse.Warehouse`;
* ``reconstruct(R)`` equals ``answer(R)`` for every base relation at the
  same step;
* every union-assembled relation of the reader's snapshot, patched or not,
  equals the full union of that snapshot's pinned shard images;
* on a layout whose sources own disjoint relations, with no batch
  rejected, the final state equals ``W`` of the live sources;
* a stretch of steps in which only one callback is runnable is a deadlock.
  The reader is always runnable, so an empty ready queue never signals it:
  the reader spinning alone does.

A failing seed replays exactly: ``explore(scenario, seed, integrator)`` is a
function of its arguments (CPython's asyncio internals decide how many
callbacks a step offers, so a seed's schedule is pinned per minor version).
Scenarios schedule no timers and do no I/O: the loop only consults the
selector when nothing is ready.
"""

from __future__ import annotations

import asyncio
import random
from pathlib import Path
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro import Catalog, Relation, Update, View, WarehouseError
from repro.analysis.concurrency import assemble
from repro.analysis.specfile import load_target
from repro.core.sharding import ASSEMBLE_UNION, ShardRouting
from repro.core.warehouse import Warehouse
from repro.integrator import AsyncChannel, AsyncConcurrentIntegrator, AsyncSource
from repro.workloads.tpcd import order_insert_rows, tpcd_instance

SPECS = Path(__file__).parents[2] / "examples" / "specs"

#: Consecutive steps with a single runnable callback that count as a deadlock.
DEADLOCK_STEPS = 64


class Deadlock(Exception):
    """Raised by :class:`SeededLoop` when only one callback stays runnable."""


class SeededLoop(asyncio.SelectorEventLoop):
    """An event loop that runs one seeded-random ready callback per step."""

    def __init__(self, seed: int) -> None:
        super().__init__()
        self._rng = random.Random(seed)
        self.steps = 0
        self.idle = 0
        self.budget: Optional[int] = DEADLOCK_STEPS

    def _run_once(self) -> None:
        ready = self._ready  # type: ignore[attr-defined]
        if not ready:
            return super()._run_once()  # type: ignore[misc]
        self.idle = self.idle + 1 if len(ready) == 1 else 0
        if self.budget is not None and self.idle > self.budget:
            raise Deadlock(f"deadlock: one runnable callback from step {self.steps - self.budget}")
        ready.rotate(-self._rng.randrange(len(ready)))
        handle = ready.popleft()
        self.steps += 1
        if not handle._cancelled:
            handle._run()


class Scenario(NamedTuple):
    """A sharded layout, its initial source state and one script per source.

    ``sources`` maps a source name to the relations it owns and the updates
    it applies, one scheduling point after each. ``refuted`` marks a layout
    whose sources share a relation: its final state depends on the order.
    """

    catalog: Catalog
    views: Sequence[View]
    routings: Sequence[ShardRouting]
    initial: Mapping[str, Relation]
    sources: Mapping[str, Tuple[Tuple[str, ...], Sequence[Update]]]
    refuted: bool = False


class Outcome(NamedTuple):
    """One explored schedule: its oracle failures and its end state."""

    seed: int
    failures: Tuple[str, ...]
    final: Dict[str, Relation]


class InjectedFault(WarehouseError):
    """The refresh failure :func:`explore` injects with ``fault=``."""


def explore(
    scenario: Scenario,
    seed: int,
    integrator: type = AsyncConcurrentIntegrator,
    fault: Optional[Tuple[int, tuple]] = None,
) -> Outcome:
    """Run ``scenario`` under the schedule ``seed`` picks; check the oracle.

    ``fault=(shard, row)`` makes every refresh of ``shard`` whose part
    inserts ``row`` raise :class:`InjectedFault`; the drain worker drops
    that batch and goes on.
    """
    pipeline = integrator(scenario.catalog, scenario.views, routings=scenario.routings)
    warehouse = pipeline.warehouse
    warehouse.initialize(scenario.initial)
    sources = []
    for name, (relations, _) in scenario.sources.items():
        source = AsyncSource(name, scenario.catalog, relations, channel=AsyncChannel(name))
        for relation in relations:
            source.load(relation, scenario.initial[relation].rows)
        pipeline.attach(source)
        sources.append(source)
    if fault is not None:
        apply_to_shard = warehouse.apply_to_shard

        def faulty(index, update):
            if index == fault[0] and any(fault[1] in d.inserts.rows for d in update):
                raise InjectedFault(f"injected fault on shard {index}")
            return apply_to_shard(index, update)

        warehouse.apply_to_shard = faulty

    bases = scenario.catalog.relation_names()
    unions = sorted(
        name for name, mode in warehouse.assembly_report.assembly.items()
        if mode == ASSEMBLE_UNION
    )
    observed: Dict[int, Dict[str, Relation]] = {}
    failures: List[str] = []
    loop = SeededLoop(seed)

    def observe() -> None:
        snapshot = warehouse.snapshot()
        observed.setdefault(snapshot.version, snapshot.state())
        for name in unions:
            images = [snapshot.shard_relation(i, name) for i in range(warehouse.router.shards)]
            if snapshot.relation(name) != assemble(ASSEMBLE_UNION, images):
                failures.append(f"step {loop.steps}: {name} != the union of its shard images")
        for name in bases:
            if warehouse.reconstruct(name) != warehouse.answer(name):
                failures.append(f"step {loop.steps}: reconstruct({name}) != answer({name})")

    async def script(source, updates) -> None:
        for update in updates:
            await source.apply_async(update)
            await asyncio.sleep(0)
        source.channel.close()

    async def drain(channel) -> None:
        while True:
            batch = await channel.next_batch()
            if batch is None:
                return
            try:
                await pipeline.process_batch(batch)
            except InjectedFault:
                pass

    async def read(done: asyncio.Future) -> None:
        while not done.done():
            observe()
            await asyncio.sleep(0)

    async def main() -> None:
        done = loop.create_future()
        reader = asyncio.ensure_future(read(done))
        await asyncio.gather(
            *(script(s, scenario.sources[s.name][1]) for s in sources),
            *(drain(s.channel) for s in sources),
        )
        done.set_result(None)
        await reader

    try:
        loop.run_until_complete(main())
    except Deadlock as exc:
        failures.append(str(exc))
        loop.budget = None
        pending = asyncio.all_tasks(loop)
        for task in pending:
            task.cancel()
        loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
    finally:
        loop.close()
    observe()

    reference = Warehouse(warehouse.spec)
    reference.initialize(scenario.initial)
    replayed = {1: reference.state}
    for record in warehouse.commit_log:
        reference.apply(record.update)
        replayed[record.version] = reference.state
    for version, state in sorted(observed.items()):
        expected = replayed[max(v for v in replayed if v <= version)]
        if state != expected:
            failures.append(f"version {version} diverges from the commit-log replay")
    final = warehouse.state()
    if not scenario.refuted and fault is None:
        live = {r: s.relation(r) for s in sources for r in s.relations}
        reference = Warehouse(warehouse.spec)
        reference.initialize(live)
        if final != reference.state:
            failures.append("final state != W(live sources)")
    return Outcome(seed, tuple(failures), final)


# -- scenarios ---------------------------------------------------------


def _update(catalog, kind, relation, rows) -> Update:
    return getattr(Update, kind)(relation, catalog[relation].attributes, rows)


def _spec_scenario(stem, initial, sources, refuted=False) -> Scenario:
    target = load_target(str(SPECS / f"{stem}.json"))
    routings = [
        ShardRouting(r.relation, r.attribute, boundaries=r.boundaries, shards=r.shards)
        for r in target.sharding.routings
    ]
    catalog = target.catalog
    state = {
        name: Relation(catalog[name].attributes, rows) for name, rows in initial.items()
    }
    scripts = {
        name: (relations, [_update(catalog, *step) for step in steps])
        for name, (relations, steps) in sources.items()
    }
    return Scenario(catalog, target.views, routings, state, scripts, refuted)


def figure1() -> Scenario:
    """Sale hashed on item over 2 shards; Emp (broadcast) on both."""
    return _spec_scenario(
        "figure1",
        {"Sale": [("TV", "Mary"), ("Car", "Ann")], "Emp": [("Mary", 23), ("Ann", 31)]},
        {
            "SalesDB": (("Sale",), [
                ("insert", "Sale", [("Radio", "Ann"), ("Fan", "Mary")]),
                ("delete", "Sale", [("TV", "Mary")]),
                ("insert", "Sale", [("TV", "Ann"), ("Amp", "Mary")]),
            ]),
            "CompanyDB": (("Emp",), [
                ("insert", "Emp", [("Zoe", 40)]),
                ("insert", "Emp", [("Bob", 40)]),
                ("delete", "Emp", [("Zoe", 40)]),
            ]),
        },
    )


def copartition() -> Scenario:
    """Orders and Shipments co-partitioned on okey over 2 shards."""
    return _spec_scenario(
        "copartition",
        {"Orders": [(1, "TV"), (2, "Car"), (5, "Amp")], "Shipments": [(1, "UPS"), (5, "DHL")]},
        {
            "OrdersDB": (("Orders",), [
                ("insert", "Orders", [(3, "Fan"), (4, "Cup")]),
                ("delete", "Orders", [(1, "TV")]),
                ("insert", "Orders", [(6, "Pen")]),
            ]),
            "ShipDB": (("Shipments",), [
                ("insert", "Shipments", [(2, "UPS"), (3, "DHL")]),
                ("delete", "Shipments", [(5, "DHL")]),
                ("insert", "Shipments", [(4, "UPS")]),
            ]),
        },
    )


def shared_feed() -> Scenario:
    """Two feeds update Sale: one inserts the row the other deletes."""
    return _spec_scenario(
        "shared_feed",
        {"Sale": [("TV", "Mary")], "Emp": [("Mary", 23), ("Ann", 31)]},
        {
            "register_feed": (("Sale",), [("insert", "Sale", [("Car", "Ann")])]),
            "audit_feed": (("Sale", "Emp"), [
                ("insert", "Sale", [("Car", "Ann")]),
                ("delete", "Sale", [("Car", "Ann")]),
            ]),
        },
        refuted=True,
    )


def tpcd() -> Scenario:
    """TPC-D at scale 1, Orders and Lineitem on orderkey over 2 shards.

    Three sources, each of whose batches touches both shards: new orders
    with their lineitems, customer churn and reference-data churn.
    """
    instance = tpcd_instance(scale=1.0, seed=7)
    catalog, database = instance.catalog, instance.database
    rng = random.Random(7)
    orders, lines = order_insert_rows(rng, database, 4)

    def placed(first, second):
        return _update(catalog, "insert", "Orders", orders[first:second]).compose(
            _update(catalog, "insert", "Lineitem", lines[2 * first:2 * second])
        )

    customer = (9000, "CUST_9000", 0, "BUILDING")
    part = (9000, "PART_9000", "BRAND_0")
    return Scenario(
        catalog,
        instance.views,
        [
            ShardRouting("Orders", "orderkey", shards=2),
            ShardRouting("Lineitem", "orderkey", shards=2),
        ],
        database.state(),
        {
            "OrdersDB": (("Orders", "Lineitem"), [placed(0, 2), placed(2, 4)]),
            "CRM": (("Customer",), [
                _update(catalog, "insert", "Customer", [customer]),
                _update(catalog, "delete", "Customer", [customer]),
            ]),
            "RefDB": (("Region", "Nation", "Supplier", "Part"), [
                _update(catalog, "insert", "Part", [part]),
                _update(catalog, "delete", "Part", [part]),
            ]),
        },
    )
