"""The four workloads: set-up, timed phases, reference checks, traced pass.

Every timed call goes through the facade only — ``Warehouse`` /
``AsyncConcurrentIntegrator`` construction with default arguments, then
``initialize``, ``apply``, ``apply_batch``, ``answer``, ``snapshot``,
``reconstruct``, ``storage_rows`` — so the end-to-end numbers survive any
refactor below that line. Reference checks run after timing, against a shadow
copy of the source state that this file maintains from the same updates.

Sizes are fixed functions of ``--seconds`` (calibrated on the seed commit so
that the timed phases of a run last about that long); the same seed and the
same ``--seconds`` always run the same operations, which is what makes the
counts in the layer table repeat exactly.
"""

from __future__ import annotations

import asyncio
import gc
import os
import resource
import statistics
import tempfile
from time import perf_counter
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro import Relation, Warehouse, parse
from repro.algebra.evaluator import evaluate
from repro.core.sharding import ShardRouting
from repro.integrator import (
    AsyncChannel,
    AsyncConcurrentIntegrator,
    AsyncSource,
    Notification,
)
from repro.workloads.tpcd import standard_views, tpcd_catalog, tpcd_instance

import metrics
import probes
import streams
from streams import Op, Query

SETUP_CYCLES = 5
ANSWER_CHECK_EVERY = 20  # one answer in 20 is compared with the reference
SNAPSHOT_CHECK_EVERY = 25  # one reader snapshot in 25 likewise
READER_HZ = 20
GOLDEN = 0.6180339887498949  # its multiples' fractional parts never settle into a period
#: Open-loop steps: name -> (notifications per second, share of ``--seconds``).
#: One notification costs about 4.5 ms of the loop on the seed commit, so
#: ``rate_base`` loads it to a quarter (lag is service time), ``rate_mid`` to
#: two thirds (queueing shows) and ``rate_burst`` past what unfolded refreshes
#: sustain (folding takes over). Every gated number of the open loop is the
#: base step's, so that step gets most of the run: its p95 is the median of
#: the whole-order deletes, one notification in ten, and needs their number.
STEPS = {"rate_base": (50, 0.75), "rate_mid": (150, 0.10), "rate_burst": (400, 0.10)}
LAG_LIMIT_MS = 50.0  # max_rate_ok: highest step whose p95 lag is within this
SHARDS = 4
SATURATION_CAPACITY = 16
REFRESH_EVERY = 10  # query_serve: one refresh after this many queries


class Plan(NamedTuple):
    """How much one run does. All counts scale with ``--seconds``."""

    scale: float
    refreshes: int = 0  # notifications (trickle, query_serve) or apply_batch ops (bulk)
    queries: int = 0
    orders_per_batch: int = 0  # refresh_bulk
    seconds: float = 0.0  # ingest_serve: the open-loop steps take STEPS' shares of this
    saturation: int = 0  # ingest_serve: notifications of the closed step


def plan_for(workload: str, seconds: float, smoke: bool = False) -> Plan:
    """Op counts per second of budget, measured on the seed commit (README.md)."""
    if smoke:
        return {
            "refresh_trickle": Plan(2, refreshes=60, queries=40),
            "refresh_bulk": Plan(1, refreshes=6, queries=40, orders_per_batch=40),
            "ingest_serve": Plan(2, seconds=2.0, saturation=120, queries=40),
            "query_serve": Plan(2, refreshes=20, queries=200),
        }[workload]
    s = seconds

    def blocks(per_second: float) -> int:
        # Whole blocks, so every run holds each kind in its exact share.
        return streams.BLOCK * max(1, round(per_second * s))

    return {
        "refresh_trickle": Plan(20, refreshes=blocks(1.6), queries=blocks(0.8)),
        "refresh_bulk": Plan(6, refreshes=3 * max(1, round(4.0 * s)), queries=blocks(0.8),
                             orders_per_batch=1000),
        "ingest_serve": Plan(6, seconds=s, saturation=blocks(6.25), queries=blocks(0.8)),
        # Whole blocks of refreshes too: one refresh per REFRESH_EVERY queries.
        "query_serve": Plan(20, refreshes=blocks(0.5), queries=REFRESH_EVERY * blocks(0.5)),
    }[workload]


def step_size(plan: Plan, step: str) -> int:
    """Notifications of one open-loop step of ``ingest_serve``."""
    rate, share = STEPS[step]
    return round(plan.seconds * share * rate)


class Inputs(NamedTuple):
    """Everything generated from the seed before timing starts."""

    instance: object
    warm: List[Op]  # one refresh of every shape: part of set-up
    first_queries: List[Query]  # one query of every template: part of set-up
    refreshes: List[Op]
    queries: List[Query]
    gen_s: float


def make_inputs(workload: str, seed: int, plan: Plan) -> Inputs:
    started = perf_counter()
    instance = tpcd_instance(scale=plan.scale, seed=seed)
    gen = streams.StreamGenerator(instance, seed)
    if workload == "refresh_bulk":
        warm, refreshes = gen.bulk(plan.refreshes, plan.orders_per_batch)
    elif workload == "ingest_serve":
        warm = gen.shapes(streams.INGEST_BLOCK)
        total = sum(step_size(plan, step) for step in STEPS)
        refreshes = gen.notifications(total + plan.saturation, streams.INGEST_BLOCK)
    else:
        warm = gen.shapes(streams.TRICKLE_BLOCK)
        refreshes = gen.notifications(plan.refreshes, streams.TRICKLE_BLOCK)
    first_queries = gen.first_queries()
    queries = gen.queries(plan.queries)
    return Inputs(instance, warm, first_queries, refreshes, queries,
                  perf_counter() - started)


class Checker:
    """Counts attempted and failed operations; plants faults for the self-test.

    ``fault`` names observations to corrupt before they are compared
    (``"answer"``: the first checked answer; ``"relation"``: the first
    reconstructed relation) — the suite's own proof that a wrong result is
    counted and fails the run.
    """

    def __init__(self, fault: Sequence[str] = ()) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._fault = set(fault)

    def ran(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(message)

    def _observed(self, kind: str, relation: Relation) -> Relation:
        if kind not in self._fault:
            return relation
        self._fault.discard(kind)
        rows = sorted(relation.rows, key=repr)
        bogus = tuple(None for _ in relation.attributes)
        return Relation(relation.attributes, rows[1:] if rows else [bogus])

    def same(self, kind: str, what: str, observed: Relation, expected: Relation) -> None:
        self.ran()
        if self._observed(kind, observed) != expected:
            self.fail(f"{what}: {len(observed)} rows, reference has {len(expected)}")


def full_collection(log: List[float]) -> float:
    """One full garbage collection of the harness's own; returns its seconds.

    Timed operations never contain one (``run_workload`` switches the
    automatic ones off): a full pass walks every tracked container — 17 ms at
    scale 20 — and fell inside every other refresh or fact join, or, where a
    seed's allocation rhythm matched the op rhythm, inside all of them. The
    harness runs the passes between operations instead and reports their
    cost as ``harness.gc_full_ms``.
    """
    started = perf_counter()
    gc.collect()
    log.append(perf_counter() - started)
    return log[-1]


def fold(warehouse, op: Op):
    """One refresh: ``apply`` for one notification, ``apply_batch`` for several."""
    if len(op.updates) == 1:
        return warehouse.apply(op.updates[0])
    return warehouse.apply_batch(op.updates)


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def entry(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


# ----------------------------------------------------------------------
# Unsharded workloads: refresh_trickle, refresh_bulk, query_serve
# ----------------------------------------------------------------------


def build_warehouse(inputs: Inputs, **options) -> Tuple[Warehouse, float]:
    """One fresh set-up cycle: spec to a warehouse that has served every shape."""
    started = perf_counter()
    warehouse = Warehouse.specify(tpcd_catalog(), standard_views(), **options)
    warehouse.initialize(inputs.instance.database)
    for op in inputs.warm:
        fold(warehouse, op)
    for query in inputs.first_queries:
        warehouse.answer(query.text)
    return warehouse, perf_counter() - started


def schedule_for(workload: str, refreshes: Sequence[Op], queries: Sequence[Query]):
    """Phases of ``Op`` / ``Query`` items, in the order a run issues them."""
    if workload != "query_serve":
        return [list(refreshes), list(queries)]
    items: List[object] = []
    pending = iter(refreshes)
    for number, query in enumerate(queries, 1):
        items.append(query)
        if number % REFRESH_EVERY == 0:
            op = next(pending, None)
            if op is not None:
                items.append(op)
    return [items]


def quarter(phases):
    """The first quarter of every phase (the traced pass replays this)."""
    return [phase[: max(1, len(phase) // 4)] for phase in phases]


class Timings:
    """What one pass over a schedule measured."""

    def __init__(self) -> None:
        self.refresh: List[float] = []
        self.snapshot: List[float] = []
        self.answer: List[float] = []
        self.answer_items: List[Query] = []
        self.refresh_items: List[Op] = []
        self.query_wall = 0.0  # wall time of the phases that answer queries
        self.wall = 0.0  # sum of the phase windows, full collections taken out
        self.windows: List[Tuple[float, float]] = []  # one per phase
        self.full_gc: List[float] = []  # seconds of each full collection
        # (position in the schedule, query, result) of the checked answers
        self.samples: List[Tuple[int, Query, Relation]] = []


def run_schedule(warehouse: Warehouse, phases, checker: Checker) -> Timings:
    """Issue every item once, closed loop, one client.

    A full collection runs before each phase and after every 20
    notifications or queries (after each ``apply_batch`` of 40, that is),
    outside every timed interval (see :func:`full_collection`).
    """
    out = Timings()
    position = 0
    since_collection = 0
    for phase in phases:
        full_collection(out.full_gc)
        phase_started = perf_counter()
        paused = 0.0
        has_queries = False
        for item in phase:
            position += 1
            checker.ran()
            since_collection += len(item.updates) if isinstance(item, Op) else 1
            try:
                if isinstance(item, Op):
                    t0 = perf_counter()
                    fold(warehouse, item)
                    t1 = perf_counter()
                    # The first read of the new version, every row touched
                    # once — what assembling a sharded image also does.
                    list(warehouse.snapshot().relation("SalesFact"))
                    t2 = perf_counter()
                    out.refresh.append(t1 - t0)
                    out.snapshot.append(t2 - t1)
                    out.refresh_items.append(item)
                else:
                    has_queries = True
                    t0 = perf_counter()
                    result = warehouse.answer(item.text)
                    t1 = perf_counter()
                    out.answer.append(t1 - t0)
                    out.answer_items.append(item)
                    if len(out.answer) % ANSWER_CHECK_EVERY == 1:
                        out.samples.append((position, item, result))
            except Exception as error:  # a refused or crashing op is a failure
                checker.fail(f"op {position}: {type(error).__name__}: {error}")
            if since_collection >= streams.BLOCK:
                since_collection = 0
                paused += full_collection(out.full_gc)
        phase_ended = perf_counter()
        out.windows.append((phase_started, phase_ended))
        out.wall += phase_ended - phase_started - paused
        if has_queries:
            out.query_wall += phase_ended - phase_started - paused
    return out


def check_unsharded(
    warehouse: Warehouse, inputs: Inputs, phases, timings: Timings, checker: Checker
) -> Dict[str, Relation]:
    """Replay the run on the shadow state; compare sampled answers and the end state."""
    shadow = dict(inputs.instance.database.state())
    streams.apply_to_shadow(shadow, inputs.warm)
    samples = {position: (query, result) for position, query, result in timings.samples}
    position = 0
    for phase in phases:
        for item in phase:
            position += 1
            if isinstance(item, Op):
                streams.apply_to_shadow(shadow, [item])
            elif position in samples:
                query, result = samples[position]
                expected = evaluate(parse(query.text), shadow, engine="tuple")
                checker.same("answer", f"answer to {query.text!r}", result, expected)
    check_final(warehouse.reconstruct, warehouse.relation, shadow, checker)
    return shadow


def check_final(reconstruct: Callable, relation: Callable, shadow, checker: Checker) -> None:
    """``reconstruct(R)`` equals the source ``R``; every view equals its definition."""
    for name in sorted(shadow):
        checker.same("relation", f"reconstruct({name})", reconstruct(name), shadow[name])
    for view in standard_views():
        expected = evaluate(view.definition, shadow, engine="tuple")
        checker.same("relation", f"view {view.name}", relation(view.name), expected)


def refresh_metrics(
    durations: Sequence[float], ops: Sequence[Op], wall: float
) -> Dict[str, Dict[str, object]]:
    notifications = sum(len(op.updates) for op in ops)
    rows = sum(op.rows for op in ops)
    return {
        "refresh_p50_ms": entry(metrics.p50_ms(durations), "ms"),
        "refresh_p95_ms": entry(metrics.p95_ms(durations), "ms"),
        "updates_per_s": entry(notifications / wall, "1/s"),
        "delta_rows_per_s": entry(rows / wall, "rows/s"),
    }


def answer_metrics(durations: Sequence[float], wall: float) -> Dict[str, Dict[str, object]]:
    return {
        "answer_p50_ms": entry(metrics.p50_ms(durations), "ms"),
        "answer_p95_ms": entry(metrics.p95_ms(durations), "ms"),
        "queries_per_s": entry(len(durations) / wall, "1/s"),
    }


def run_unsharded(workload: str, inputs: Inputs, checker: Checker) -> Dict[str, object]:
    """The untraced run: set-up cycles, the timed schedule, the checks."""
    setups = []
    for _ in range(SETUP_CYCLES):
        gc.collect()
        warehouse, seconds = build_warehouse(inputs)
        setups.append(seconds)
    phases = schedule_for(workload, inputs.refreshes, inputs.queries)
    timings = run_schedule(warehouse, phases, checker)
    shadow = check_unsharded(warehouse, inputs, phases, timings, checker)
    source_rows = sum(len(rel) for rel in shadow.values())
    refresh_wall = sum(timings.refresh)
    out = {
        "setup_s": entry(statistics.median(setups), "s"),
        **refresh_metrics(timings.refresh, timings.refresh_items, refresh_wall),
        # Closed loop, one client: a notification is due when the previous
        # call returns, so its commit lag is the call's own wall time.
        "commit_lag_p50_ms": entry(metrics.p50_ms(timings.refresh), "ms"),
        "commit_lag_p95_ms": entry(metrics.p95_ms(timings.refresh), "ms"),
        "snapshot_read_p50_ms": entry(metrics.p50_ms(timings.snapshot), "ms"),
        **answer_metrics(timings.answer, timings.query_wall),
        "storage_ratio": entry(warehouse.storage_rows() / source_rows, "rows/row"),
        "peak_rss_mb": entry(rss_mb(), "MB"),
    }
    return {
        "metrics": out,
        "samples": {"refresh": len(timings.refresh), "answer": len(timings.answer),
                    "snapshot_read": len(timings.snapshot), "setup": len(setups)},
        "info": {"timed_s": timings.wall},
    }


# -- traced pass ---------------------------------------------------------


def read_counters(
    out: Dict[str, Optional[float]], missing: List[str], label: str,
    names: Sequence[str], read: Callable[[], Sequence[float]],
) -> None:
    """Layer metrics taken from the program's public counters.

    Like a probe whose target has gone, a counter a later refactor removed
    yields ``None`` and a line in ``probes_missing``, never a crash.
    """
    try:
        values: Sequence[Optional[float]] = read()
    except (AttributeError, ImportError, KeyError):
        missing.append(f"counter:{label}")
        values = [None] * len(names)
    out.update(zip(names, values))


EVAL_STATS = ("algebra.evaluator.nodes_evaluated", "algebra.evaluator.memo_hits",
              "algebra.evaluator.rows_joined", "algebra.evaluator.cache_hit_ratio")


def eval_stats(warehouses: Sequence[Warehouse]) -> List[float]:
    """``EVAL_STATS`` summed over the given warehouses' public ``eval_stats``."""
    total: Dict[str, int] = {}
    for warehouse in warehouses:
        for key, value in warehouse.eval_stats.snapshot().items():
            total[key] = total.get(key, 0) + value
    lookups = total["cache_hits"] + total["cache_misses"]
    return [total["nodes_evaluated"], total["memo_hits"], total["rows_joined"],
            total["cache_hits"] / lookups if lookups else 0.0]


def translation_counters(warehouse: Warehouse) -> List[float]:
    cache = warehouse.translation_cache
    lookups = cache.hits + cache.misses
    return [cache.hits / lookups if lookups else 0.0, len(cache)]


def plan_cache_hit_ratio(warehouse: Warehouse) -> List[float]:
    compiles = warehouse.metrics.value("compiler.compiles")
    hits = warehouse.metrics.value("compiler.plan_cache_hits")
    return [hits / (hits + compiles) if hits + compiles else 0.0]


def span_metrics(recorder: probes.Recorder, timed_from: float) -> Dict[str, Optional[float]]:
    """Layer metrics from the spans of the timed part, plus set-up rows."""
    setup = [s for s in recorder.spans if s.start < timed_from]
    timed = [s for s in recorder.spans if s.start >= timed_from]
    out = metrics.layer_metrics(timed)
    before = metrics.layer_metrics(setup)
    for name in ("core.warehouse.specify", "core.warehouse.initialize",
                 "core.complement.complement_thm22"):
        out[f"{name}.busy_ms"] = before.get(f"{name}.busy_ms", 0.0)
    out["core.warehouse.first_refresh_ms"] = before.get("core.warehouse.apply.busy_ms", 0.0)
    out["core.warehouse.first_answer_ms"] = (
        before.get("core.warehouse.answer.busy_ms", 0.0)
        + before.get("core.sharding.answer.busy_ms", 0.0)
    )
    kernels = [f"storage.columnar.{k}" for k in probes.KERNELS]
    # Kernels call one another; count only a kernel's own time in the total.
    out["storage.columnar.busy_ms"] = sum(out.get(f"{k}.self_ms", 0.0) for k in kernels)
    out["storage.columnar.calls"] = sum(out.get(f"{k}.calls", 0) for k in kernels)
    rows_in = sum(out.get(f"{k}.rows_in", 0) for k in kernels)
    out["core.maintenance.effective_delta_rows"] = out.get(
        "core.maintenance.normalize_update.rows_in", 0)
    out["core.maintenance.applied_rows"] = out.get(
        "core.maintenance.refresh_state.rows_in", 0)
    delta = out["core.maintenance.effective_delta_rows"]
    out["storage.columnar.rows_in_per_delta_row"] = rows_in / delta if delta else 0.0
    return out


def answer_class_metrics(timings) -> Dict[str, float]:
    by_class: Dict[str, List[float]] = {}
    for query, seconds in zip(timings.answer_items, timings.answer):
        by_class.setdefault(query.klass, []).append(seconds)
        if query.fresh:
            by_class.setdefault("miss", []).append(seconds)
    return {
        f"core.warehouse.answer.{klass}.p50_ms": metrics.p50_ms(values)
        for klass, values in by_class.items()
    }


def traced_unsharded(
    workload: str, inputs: Inputs, checker: Checker, trace_out: Optional[str],
    probe_table: Sequence[probes.Probe],
) -> Dict[str, object]:
    """Replay the first quarter twice: probes off, then on."""
    phases = quarter(schedule_for(workload, inputs.refreshes, inputs.queries))
    warehouse, _ = build_warehouse(inputs)
    plain = run_schedule(warehouse, phases, checker)

    recorder = probes.Recorder()
    installation = probes.install(recorder, probe_table)
    try:
        warehouse, _ = build_warehouse(inputs)
        timed_from = perf_counter()
        timings = run_schedule(warehouse, phases, checker)
    finally:
        installation.uninstall()
    check_unsharded(warehouse, inputs, phases, timings, checker)

    out = span_metrics(recorder, timed_from)
    out.update(answer_class_metrics(timings))
    missing = installation.missing
    read_counters(out, missing, "Warehouse.eval_stats", EVAL_STATS,
                  lambda: eval_stats([warehouse]))
    read_counters(out, missing, "Warehouse.translation_cache",
                  ("core.translation.cache_hit_ratio", "core.translation.cache_entries"),
                  lambda: translation_counters(warehouse))
    read_counters(out, missing, "Warehouse.metrics",
                  ("compiler.runtime.plan_cache_hit_ratio",),
                  lambda: plan_cache_hit_ratio(warehouse))
    covered = sum(metrics.top_level_share(recorder.spans, start, end) * (end - start)
                  for start, end in timings.windows)
    out["harness.unattributed_share"] = 1.0 - covered / timings.wall
    out["harness.trace_overhead_ratio"] = timings.wall / plain.wall
    out["harness.gc_full_ms"] = statistics.fmean(timings.full_gc) * 1e3
    if workload == "refresh_trickle":
        out.update(variants(inputs, checker))
    if workload == "refresh_bulk":
        out.update(persist_round_trip(warehouse, checker))
    if trace_out:
        recorder.write_jsonl(trace_out)
    return finish_trace(out, inputs, installation, probe_table)


def dictionary_size() -> List[float]:
    from repro.storage import columnar

    return [columnar.dictionary_size()]


def finish_trace(out, inputs: Inputs, installation: probes.Installation,
                 probe_table: Sequence[probes.Probe]):
    read_counters(out, installation.missing, "columnar.dictionary_size",
                  ("storage.columnar.dictionary_size",), dictionary_size)
    out["harness.gen_s"] = inputs.gen_s
    out["harness.probes_missing"] = len(installation.missing)
    gone = {p.prefix for p in probe_table
            if f"{p.module}:{p.target}" in installation.missing}
    # A prefix with a surviving twin probe (snapshot, specify) still reports.
    alive = {p.prefix for p in probe_table
             if f"{p.module}:{p.target}" not in installation.missing}
    return {
        "metrics": metrics.select_layers(out, gone - alive),
        "probes_missing": installation.missing,
    }


def variants(inputs: Inputs, checker: Checker) -> Dict[str, float]:
    """Engine x compile matrix and the recompute baseline, as rows of one table."""
    ops = inputs.refreshes[: max(1, len(inputs.refreshes) // 10)]
    out = {}
    for name, options, full in (
        ("variant.compiled", {"compile_plans": True}, False),
        ("variant.tuple", {"engine": "tuple"}, False),
        ("baseline.full_recompute", {}, True),
    ):
        warehouse, _ = build_warehouse(inputs, **options)
        durations = []
        for op in ops:
            checker.ran()
            t0 = perf_counter()
            try:
                if full:
                    warehouse.apply_full(op.updates[0])
                else:
                    warehouse.apply(op.updates[0])
            except Exception as error:
                checker.fail(f"{name}: {type(error).__name__}: {error}")
            durations.append(perf_counter() - t0)
        out[f"{name}.refresh_p50_ms"] = metrics.p50_ms(durations)
    return out


def persist_round_trip(warehouse: Warehouse, checker: Checker) -> Dict[str, float]:
    """One save, load and state-equality check of the warehouse as it stands."""
    from repro.storage.persist import load_warehouse, save_warehouse

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=root) as folder:
        path = os.path.join(folder, "warehouse.json")
        t0 = perf_counter()
        save_warehouse(warehouse, path)
        t1 = perf_counter()
        loaded = load_warehouse(path)
        t2 = perf_counter()
        size = os.path.getsize(path)
    checker.ran()
    if loaded.state != warehouse.state:
        checker.fail("persist: loaded state differs from the saved one")
    return {"storage.persist.save_ms": (t1 - t0) * 1e3,
            "storage.persist.load_ms": (t2 - t1) * 1e3,
            "storage.persist.bytes": size}


# ----------------------------------------------------------------------
# ingest_serve
# ----------------------------------------------------------------------


class TimedIntegrator(AsyncConcurrentIntegrator):
    """Stamps every notification with the return time of its ``process_batch``.

    ``run()`` drains through ``self.process_batch``, so overriding the public
    method is enough to learn when each notification was committed — the end
    of the commit-lag interval — without touching the program.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.committed_at: Dict[Tuple[str, int], float] = {}
        self.batches: List[Tuple[float, float, int]] = []  # start, end, size

    async def process_batch(self, notifications) -> int:
        notifications = list(notifications)
        t0 = perf_counter()
        count = await super().process_batch(notifications)
        t1 = perf_counter()
        self.batches.append((t0, t1, len(notifications)))
        for note in notifications:
            self.committed_at[(note.source, note.sequence)] = t1
        return count


async def until(due: float) -> None:
    """Yield in a loop until ``due`` has come; never sleep.

    Every other task runs meanwhile, and the process stays on its processor.
    A generator that slept between notifications measured the host as much
    as the program: a process that sleeps gives its processor away and finds
    its caches cold, and how cold is the neighbours' doing (README.md,
    *Steadiness*). ``asyncio.sleep`` alone also wakes up to a millisecond late.
    """
    while perf_counter() < due:
        await asyncio.sleep(0)


async def build_integrator(inputs: Inputs) -> Tuple[TimedIntegrator, Dict[str, AsyncChannel], float]:
    """One fresh set-up cycle for the sharded, concurrent system."""
    started = perf_counter()
    catalog = tpcd_catalog()
    state = inputs.instance.database.state()
    sources = []
    for name, relations in streams.SOURCES.items():
        source = AsyncSource(name, catalog, relations, channel=AsyncChannel(name))
        for relation in relations:
            source.load(relation, state[relation].rows)
        sources.append(source)
    integrator = TimedIntegrator(
        catalog, standard_views(),
        routings=[ShardRouting("Orders", "orderkey", shards=SHARDS),
                  ShardRouting("Lineitem", "orderkey", shards=SHARDS)],
    )
    integrator.initialize(sources)
    for number, op in enumerate(inputs.warm):
        await integrator.process_batch([Notification(op.source, -number, op.updates[0])])
    for query in inputs.first_queries:
        integrator.warehouse.answer(query.text)
    channels = {source.name: source.channel for source in sources}
    return integrator, channels, perf_counter() - started


class IngestRun:
    """What one pass of ``ingest_serve`` measured."""

    def __init__(self) -> None:
        self.lag: Dict[str, List[float]] = {}  # step -> commit lag per notification
        self.late: Dict[str, List[float]] = {}  # step -> how late the generator published
        self.reads: Dict[str, List[float]] = {}  # step -> read latency, due time to image
        self.read_versions: List[int] = []
        self.batches: Dict[str, List[float]] = {}  # step -> seconds of each process_batch call
        self.sampled = []  # ShardedSnapshot handles, assembled after the run
        self.saturation_wall = 0.0
        self.saturation_window = (0.0, 0.0)
        self.saturation_ops: List[Op] = []
        self.answer: List[float] = []
        self.answer_items: List[Query] = []
        self.answer_wall = 0.0
        self.answer_samples: List[Tuple[Query, Relation]] = []
        self.waits: List[float] = []  # channel residence per delivery (lag_observer)
        self.full_gc: List[float] = []  # seconds of each full collection


async def run_ingest(
    integrator: TimedIntegrator, channels: Dict[str, AsyncChannel], plan_steps,
    saturation: Sequence[Op], queries: Sequence[Query], checker: Checker,
    observe_waits: bool = False,
) -> IngestRun:
    """Three open-loop steps, the saturation step, then the answers."""
    out = IngestRun()
    due_at: Dict[Tuple[str, int], Tuple[str, float]] = {}
    published = integrator.processed
    if observe_waits:
        for channel in channels.values():
            previous = channel.lag_observer

            def observer(lag, previous=previous):
                out.waits.append(lag)
                if previous is not None:
                    previous(lag)

            channel.lag_observer = observer

    async def drained() -> None:
        while integrator.processed < published:
            await asyncio.sleep(0.001)

    reading = True
    step_now = "idle"  # the step whose notifications are being published

    async def reader() -> None:
        started = perf_counter()
        number = 0
        while reading:
            # READER_HZ on average, never in step with the generator: at a
            # fixed 50 ms a run's reads met the 20 ms notifications either
            # every time or never, as its starting phase fell, and the
            # median read jumped between 0.4 ms and 3 ms from run to run.
            due = started + (number + number * GOLDEN % 1.0) / READER_HZ
            await until(due)
            checker.ran()
            try:
                snapshot = integrator.snapshot()
                snapshot.relation("SalesFact")
                out.reads.setdefault(step_now, []).append(perf_counter() - due)
                out.read_versions.append(snapshot.version)
                if number % SNAPSHOT_CHECK_EVERY == 0:
                    out.sampled.append(snapshot)
            except Exception as error:
                checker.fail(f"snapshot read: {type(error).__name__}: {error}")
            number += 1

    full_collection(out.full_gc)
    drain_task = asyncio.ensure_future(integrator.run())
    reader_task = asyncio.ensure_future(reader())
    try:
        for step, rate, ops in plan_steps:
            first_batch = len(integrator.batches)
            started = perf_counter() + 0.01
            lateness = out.late.setdefault(step, [])
            step_now = step
            for number, op in enumerate(ops):
                due = started + number / rate
                await until(due)
                lateness.append(perf_counter() - due)
                note = channels[op.source].publish(op.source, op.updates[0])
                due_at[(note.source, note.sequence)] = (step, due)
            step_now = "idle"
            published += len(ops)
            checker.ran(len(ops))
            await drained()
            out.batches[step] = [t1 - t0 for t0, t1, _ in integrator.batches[first_batch:]]
            full_collection(out.full_gc)  # the queue is empty: nothing waits for it

        for channel in channels.values():
            channel.capacity = SATURATION_CAPACITY
        started = perf_counter()
        step_now = "saturation"
        for op in saturation:
            await channels[op.source].send(op.source, op.updates[0])
        published += len(saturation)
        checker.ran(len(saturation))
        await drained()
        ended = perf_counter()
        out.saturation_wall = ended - started
        out.saturation_window = (started, ended)
        out.saturation_ops = list(saturation)
    finally:
        reading = False
        for channel in channels.values():
            channel.close()
        await asyncio.gather(drain_task, reader_task)

    for key, (step, due) in due_at.items():
        committed = integrator.committed_at.get(key)
        if committed is None:
            checker.fail(f"notification {key} was never committed")
        else:
            out.lag.setdefault(step, []).append(committed - due)

    full_collection(out.full_gc)
    started = perf_counter()
    paused = 0.0
    for number, query in enumerate(queries, 1):
        checker.ran()
        try:
            t0 = perf_counter()
            result = integrator.warehouse.answer(query.text)
            out.answer.append(perf_counter() - t0)
            out.answer_items.append(query)
            if number % ANSWER_CHECK_EVERY == 1:
                out.answer_samples.append((query, result))
        except Exception as error:
            checker.fail(f"answer: {type(error).__name__}: {error}")
        if number % streams.BLOCK == 0:
            paused += full_collection(out.full_gc)
    out.answer_wall = perf_counter() - started - paused
    return out


def ingest_steps(inputs: Inputs, plan: Plan, share: float = 1.0):
    """``(open-loop steps, saturation ops)`` over a prefix of the stream.

    ``share`` < 1 shortens every step alike (the traced pass). The slices are
    contiguous: a stream with a gap would delete rows it never inserted.
    """
    steps = []
    position = 0
    for step, (rate, _) in STEPS.items():
        count = max(1, round(step_size(plan, step) * share))
        steps.append((step, rate, inputs.refreshes[position:position + count]))
        position += count
    count = max(1, round(plan.saturation * share))
    return steps, inputs.refreshes[position:position + count]


def check_ingest(
    integrator: TimedIntegrator, inputs: Inputs, steps, saturation: Sequence[Op],
    run: IngestRun, checker: Checker,
) -> Dict[str, Relation]:
    """Shadow end state, commit-log replay, sampled snapshots, sampled answers."""
    shadow = dict(inputs.instance.database.state())
    streams.apply_to_shadow(shadow, inputs.warm)
    for _, _, ops in steps:
        streams.apply_to_shadow(shadow, ops)
    streams.apply_to_shadow(shadow, saturation)
    warehouse = integrator.warehouse
    check_final(warehouse.reconstruct, warehouse.relation, shadow, checker)
    for query, result in run.answer_samples:
        expected = evaluate(parse(query.text), shadow, engine="tuple")
        checker.same("answer", f"answer to {query.text!r}", result, expected)

    # E16's oracle: the commit log through one synchronous reference
    # warehouse. Records between two sampled versions are folded with
    # apply_batch, so the replay costs one refresh per sample, not per commit.
    reference = Warehouse.specify(tpcd_catalog(), standard_views())
    reference.initialize(inputs.instance.database)
    wanted = {snapshot.version: snapshot for snapshot in run.sampled}
    pending = []
    for record in warehouse.commit_log:
        pending.append(record.update)
        if record.version in wanted:
            reference.apply_batch(pending)
            pending = []
            checker.ran()
            if wanted[record.version].state() != reference.state:
                checker.fail(f"snapshot at version {record.version} differs from the replay")
    if pending:
        reference.apply_batch(pending)
    checker.ran()
    if warehouse.state() != reference.state:
        checker.fail("final sharded state differs from the commit-log replay")
    return shadow


def shard_skew(integrator: AsyncConcurrentIntegrator) -> float:
    """Max over mean of the per-shard refreshed rows (public metrics registry)."""
    rows = [integrator.metrics.value(f"warehouse.shard_refresh_rows.{i}")
            for i in range(SHARDS)]
    mean = statistics.fmean(rows)
    return max(rows) / mean if mean else 0.0


def max_rate_ok(lag: Dict[str, List[float]]) -> float:
    best = 0.0
    for step, (rate, _) in STEPS.items():
        if step in lag and metrics.p95_ms(lag[step]) <= LAG_LIMIT_MS:
            best = float(rate)
    return best


async def run_ingest_workload(inputs: Inputs, plan: Plan, checker: Checker):
    setups = []
    for _ in range(SETUP_CYCLES):
        gc.collect()
        integrator, channels, seconds = await build_integrator(inputs)
        setups.append(seconds)
    steps, saturation = ingest_steps(inputs, plan)
    run = await run_ingest(integrator, channels, steps, saturation, inputs.queries, checker)
    shadow = check_ingest(integrator, inputs, steps, saturation, run, checker)
    source_rows = sum(len(rel) for rel in shadow.values())
    # Every latency is the base step's: the loop is a quarter loaded there,
    # so a number is the work it names and not the queue before it.
    base = run.lag.get("rate_base", [0.0])
    batches = run.batches.get("rate_base", [0.0])
    reads = run.reads.get("rate_base", [0.0])
    out = {
        "setup_s": entry(statistics.median(setups), "s"),
        **refresh_metrics(batches, run.saturation_ops, run.saturation_wall),
        "commit_lag_p50_ms": entry(metrics.p50_ms(base), "ms"),
        "commit_lag_p95_ms": entry(metrics.p95_ms(base), "ms"),
        "snapshot_read_p50_ms": entry(metrics.p50_ms(reads), "ms"),
        **answer_metrics(run.answer, run.answer_wall),
        "storage_ratio": entry(integrator.warehouse.storage_rows() / source_rows, "rows/row"),
        "peak_rss_mb": entry(rss_mb(), "MB"),
    }
    return {
        "metrics": out,
        "samples": {"refresh": len(batches), "commit_lag": len(base),
                    "snapshot_read": len(reads), "answer": len(run.answer),
                    "setup": len(setups)},
        "info": {
            "timed_s": sum(len(ops) / rate for _, rate, ops in steps)
            + run.saturation_wall + run.answer_wall,
            **{f"lag_p50_ms.{step}": metrics.p50_ms(v) for step, v in run.lag.items()},
            **{f"lag_p95_ms.{step}": metrics.p95_ms(v) for step, v in run.lag.items()},
            **{f"late_p95_ms.{step}": metrics.p95_ms(v) for step, v in run.late.items()},
            **{f"read_p50_ms.{step}": metrics.p50_ms(v) for step, v in run.reads.items()},
        },
    }


async def traced_ingest(
    inputs: Inputs, plan: Plan, checker: Checker, trace_out: Optional[str],
    probe_table: Sequence[probes.Probe],
):
    steps, saturation = ingest_steps(inputs, plan, share=0.25)
    queries = inputs.queries[: max(1, len(inputs.queries) // 4)]

    integrator, channels, _ = await build_integrator(inputs)
    plain = await run_ingest(integrator, channels, steps, saturation, queries, checker)

    recorder = probes.Recorder()
    installation = probes.install(recorder, probe_table)
    try:
        integrator, channels, _ = await build_integrator(inputs)
        timed_from = perf_counter()
        run = await run_ingest(integrator, channels, steps, saturation, queries,
                               checker, observe_waits=True)
    finally:
        installation.uninstall()
    check_ingest(integrator, inputs, steps, saturation, run, checker)

    out = span_metrics(recorder, timed_from)
    out.update(answer_class_metrics(run))
    missing = installation.missing
    read_counters(out, missing, "ShardedWarehouse.shards[].eval_stats", EVAL_STATS,
                  lambda: eval_stats(integrator.warehouse.shards))
    sizes = [size for _, _, size in integrator.batches[len(inputs.warm):]]
    commits = len(integrator.warehouse.commit_log) - len(inputs.warm)
    out["integrator.channel.wait_p50_ms"] = metrics.p50_ms(run.waits) if run.waits else 0.0
    read_counters(out, missing, "AsyncChannel.backpressure_waits",
                  ("integrator.channel.backpressure_waits",),
                  lambda: [sum(c.backpressure_waits for c in channels.values())])
    out["integrator.channel.batch_size_mean"] = statistics.fmean(sizes) if sizes else 0.0
    out["integrator.fold_ratio"] = sum(sizes) / commits if commits else 0.0
    # The open-loop numbers come from the pass without probes.
    for step in ("rate_mid", "rate_burst"):
        out[f"integrator.lag_p50_ms.{step}"] = metrics.p50_ms(plain.lag.get(step, [0.0]))
    out["integrator.max_rate_ok"] = max_rate_ok(plain.lag)
    out["harness.generator_late_p95_ms"] = metrics.p95_ms(plain.late.get("rate_base", [0.0]))
    parts = [s.rows for s in recorder.spans
             if s.name == "core.sharding.split" and s.start >= timed_from]
    out["core.sharding.split.parts_mean"] = statistics.fmean(parts) if parts else 0.0
    read_counters(out, missing, "AsyncConcurrentIntegrator.metrics",
                  ("core.sharding.shard_skew",), lambda: [shard_skew(integrator)])
    out["core.sharding.snapshot.assemblies"] = len(set(run.read_versions))
    share = metrics.top_level_share(recorder.spans, *run.saturation_window)
    out["harness.unattributed_share"] = 1.0 - share
    out["harness.trace_overhead_ratio"] = run.saturation_wall / plain.saturation_wall
    out["harness.gc_full_ms"] = statistics.fmean(run.full_gc) * 1e3
    if trace_out:
        recorder.write_jsonl(trace_out)
    return finish_trace(out, inputs, installation, probe_table)


# ----------------------------------------------------------------------
# Entry point of the workload's process
# ----------------------------------------------------------------------


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False,
    fault: Sequence[str] = (), trace_out: Optional[str] = None,
    probe_table: Sequence[probes.Probe] = probes.PROBES,
) -> Dict[str, object]:
    """One run of one workload, in this process. Returns the result document."""
    plan = plan_for(workload, seconds, smoke)
    inputs = make_inputs(workload, seed, plan)
    # The pre-generated streams are the harness's, and far larger than the
    # program's own heap. Unfrozen, every full collection walks them (46 ms a
    # pass, every other op on refresh_bulk) and latencies turn bimodal on the
    # harness's account.
    gc.collect()
    gc.freeze()
    # Young generations collect as usual; full collections are the harness's
    # own, between operations (see full_collection).
    young, middle, _ = gc.get_threshold()
    gc.set_threshold(young, middle, 1 << 30)
    checker = Checker(fault)
    if workload == "ingest_serve":
        if trace:
            body = asyncio.run(traced_ingest(inputs, plan, checker, trace_out, probe_table))
        else:
            body = asyncio.run(run_ingest_workload(inputs, plan, checker))
    elif trace:
        body = traced_unsharded(workload, inputs, checker, trace_out, probe_table)
    else:
        body = run_unsharded(workload, inputs, checker)
    body.update(
        correct=checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        failures=checker.messages,
        gen_s=inputs.gen_s,
    )
    return body
