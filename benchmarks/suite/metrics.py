"""The suite's metric catalogue and the arithmetic behind it.

``BENCHMARK.json`` at the repository root is generated from this file
(:func:`benchmark_json`); ``tests/test_suite.py`` fails when the two differ.
What each per-layer metric is expected to move, and where the prediction is
*no change*, is recorded here beside its name and repeated in ``README.md``.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence

from probes import KERNELS, Span

RUN_SECONDS = 20

WORKLOADS = {
    "refresh_trickle": (
        "delta far smaller than the warehouse: the fixed cost of one refresh "
        "(normalise, plan lookup, kernels over warehouse-sized operands, patch, commit)"
    ),
    "refresh_bulk": (
        "delta about as large as the warehouse: Update.compose folding and "
        "delta-proportional kernel work, fixed cost amortised over 40 notifications"
    ),
    "ingest_serve": (
        "open-loop arrivals through channel, fold, split, per-shard refresh, MVCC "
        "commit and snapshot assembly on 4 small shards: plumbing leads, kernels do not"
    ),
    "query_serve": (
        "Q o W^-1 answers over hot and fresh literals with a refresh every 10 "
        "queries: the read side of the evaluator, kernels and caches"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    native: Sequence[str]  # the workloads the metric was designed for


_REFRESH = ("refresh_trickle", "refresh_bulk")
_ALL = tuple(WORKLOADS)

#: Definitions are in README.md, with the calibration record behind the bounds:
#: every timing repeats within 2-5 % on a quiet box, but the reference box has
#: phases, minutes long, in which one and the same run reads 15-20 % slower, and
#: a bound narrower than that would reject the benchmark, not a change.
#: The result line is rectangular (every metric
#: on every workload); on a workload outside ``native`` a metric carries the
#: closest thing the run observes anyway, and README.md says what that is.
END_TO_END: Sequence[EndToEnd] = (
    EndToEnd("setup_s", "s", "lower", 0.25, _ALL),
    EndToEnd("refresh_p50_ms", "ms", "lower", 0.25, (*_REFRESH, "query_serve")),
    EndToEnd("refresh_p95_ms", "ms", "lower", 0.25, _REFRESH),
    EndToEnd("updates_per_s", "1/s", "higher", 0.25, (*_REFRESH, "ingest_serve")),
    EndToEnd("delta_rows_per_s", "rows/s", "higher", 0.25, _REFRESH),
    EndToEnd("commit_lag_p50_ms", "ms", "lower", 0.25, ("ingest_serve",)),
    EndToEnd("commit_lag_p95_ms", "ms", "lower", 0.25, ("ingest_serve",)),
    EndToEnd("snapshot_read_p50_ms", "ms", "lower", 0.25, ("ingest_serve",)),
    EndToEnd("answer_p50_ms", "ms", "lower", 0.25, ("query_serve",)),
    EndToEnd("answer_p95_ms", "ms", "lower", 0.25, ("query_serve",)),
    EndToEnd("queries_per_s", "1/s", "higher", 0.25, ("query_serve",)),
    EndToEnd("storage_ratio", "rows/row", "lower", 0.01, _ALL),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.25, _ALL),
)


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str = ""


def _family(prefix: str, suffixes: Iterable[str], moves: str) -> List[Layer]:
    units = {"calls": ("count", "lower"), "busy_ms": ("ms", "lower"),
             "self_ms": ("ms", "lower"), "p99_ms": ("ms", "lower"),
             "rows_in": ("rows", "lower")}
    return [Layer(f"{prefix}.{s}", *units[s], moves) for s in suffixes]


_INGEST_LAG = "commit_lag_p50_ms, commit_lag_p95_ms, updates_per_s on ingest_serve"
_TRICKLE = "refresh_p50_ms on refresh_trickle"

PER_LAYER: Sequence[Layer] = (
    # integrator
    Layer("integrator.channel.wait_p50_ms", "ms", "lower", _INGEST_LAG),
    Layer("integrator.channel.backpressure_waits", "count", "lower", _INGEST_LAG),
    Layer("integrator.channel.batch_size_mean", "count", "higher", _INGEST_LAG),
    *_family("integrator.process_batch", ("calls", "busy_ms", "self_ms"), _INGEST_LAG),
    Layer("integrator.fold_ratio", "ratio", "higher", _INGEST_LAG),
    Layer("integrator.lag_p50_ms.rate_mid", "ms", "lower", _INGEST_LAG),
    Layer("integrator.lag_p50_ms.rate_burst", "ms", "lower", _INGEST_LAG),
    Layer("integrator.max_rate_ok", "1/s", "higher", "informational: quantised"),
    # storage.update
    *_family("storage.update.compose", ("calls", "busy_ms"),
             "updates_per_s on ingest_serve and refresh_bulk"),
    # core.sharding
    Layer("core.sharding.split.busy_ms", "ms", "lower", _INGEST_LAG),
    Layer("core.sharding.split.parts_mean", "count", "lower", _INGEST_LAG),
    *_family("core.sharding.apply_to_shard", ("calls", "busy_ms"), _INGEST_LAG),
    Layer("core.sharding.shard_skew", "ratio", "lower", "commit_lag_p95_ms on ingest_serve"),
    *_family("core.sharding.commit", ("calls", "busy_ms"), _INGEST_LAG),
    Layer("core.sharding.snapshot.busy_ms", "ms", "lower",
          "snapshot_read_p50_ms on ingest_serve"),
    Layer("core.sharding.snapshot.assemblies", "count", "lower",
          "snapshot_read_p50_ms on ingest_serve"),
    # core.warehouse
    *_family("core.warehouse.apply", ("calls", "busy_ms", "self_ms", "p99_ms"),
             "self_ms: " + _TRICKLE + ", commit_lag_p50_ms on ingest_serve"),
    *_family("core.warehouse.answer", ("calls", "busy_ms", "self_ms", "p99_ms"),
             "answer_p50_ms, answer_p95_ms, queries_per_s on query_serve"),
    *(Layer(f"core.warehouse.answer.{k}.p50_ms", "ms", "lower",
            "answer_p50_ms / answer_p95_ms on query_serve")
      for k in ("point", "join", "factjoin", "antijoin", "scan", "miss")),
    Layer("core.warehouse.specify.busy_ms", "ms", "lower", "setup_s"),
    Layer("core.warehouse.initialize.busy_ms", "ms", "lower", "setup_s"),
    Layer("core.warehouse.first_refresh_ms", "ms", "lower", "setup_s"),
    Layer("core.warehouse.first_answer_ms", "ms", "lower", "setup_s"),
    # core.maintenance
    *_family("core.maintenance.normalize_update", ("busy_ms", "self_ms"), _TRICKLE),
    *_family("core.maintenance.maintenance_expressions", ("calls", "busy_ms"),
             "calls should be about the number of update shapes, not of refreshes"),
    *_family("core.maintenance.refresh_state", ("busy_ms", "self_ms"), _TRICKLE),
    Layer("core.maintenance.effective_delta_rows", "rows", "lower", _TRICKLE),
    Layer("core.maintenance.applied_rows", "rows", "lower", _TRICKLE),
    # algebra.evaluator
    *_family("algebra.evaluator.evaluate", ("calls", "busy_ms", "self_ms"),
             _TRICKLE + "; answer_p50_ms on query_serve"),
    Layer("algebra.evaluator.nodes_evaluated", "count", "lower", _TRICKLE),
    Layer("algebra.evaluator.cache_hit_ratio", "ratio", "higher", _TRICKLE),
    Layer("algebra.evaluator.memo_hits", "count", "higher", _TRICKLE),
    Layer("algebra.evaluator.rows_joined", "rows", "lower", _TRICKLE),
    # storage.columnar
    *(layer for k in KERNELS for layer in _family(
        f"storage.columnar.{k}", ("busy_ms", "rows_in"),
        "refresh_p50_ms, delta_rows_per_s on refresh_bulk; answer_p95_ms on query_serve")),
    Layer("storage.columnar.calls", "count", "lower", "refresh_p50_ms on refresh_bulk"),
    Layer("storage.columnar.busy_ms", "ms", "lower", "refresh_p50_ms on refresh_bulk"),
    Layer("storage.columnar.dictionary_size", "count", "lower", "peak_rss_mb"),
    Layer("storage.columnar.rows_in_per_delta_row", "ratio", "lower",
          "the waste an incremental-operator fix must collapse: " + _TRICKLE),
    # storage.relation
    *(Layer(f"storage.relation.{k}.busy_ms", "ms", "lower", _TRICKLE)
      for k in ("union", "difference", "project", "join")),
    # compiler.runtime
    *_family("compiler.runtime.program_for", ("calls", "busy_ms"),
             "zero while compile_plans is off by default; then " + _TRICKLE + ", setup_s"),
    Layer("compiler.runtime.refresh.busy_ms", "ms", "lower", _TRICKLE),
    Layer("compiler.runtime.plan_cache_hit_ratio", "ratio", "higher", _TRICKLE),
    # core.translation
    *_family("core.translation.translate_query", ("calls", "busy_ms"),
             "answer_p95_ms on query_serve (fresh literals)"),
    Layer("core.translation.cache_hit_ratio", "ratio", "higher",
          "answer_p95_ms on query_serve"),
    Layer("core.translation.cache_entries", "count", "lower", "peak_rss_mb on query_serve"),
    Layer("core.complement.complement_thm22.busy_ms", "ms", "lower", "setup_s"),
    Layer("storage.snapshot.relation.busy_ms", "ms", "lower", "snapshot_read_p50_ms"),
    # storage.persist: one save, load, state-equality round trip after refresh_bulk
    Layer("storage.persist.save_ms", "ms", "lower", "informational until restart is a user path"),
    Layer("storage.persist.load_ms", "ms", "lower", "informational"),
    Layer("storage.persist.bytes", "bytes", "lower", "informational"),
    # variants and baselines: first tenth of refresh_trickle, ungated
    Layer("variant.compiled.refresh_p50_ms", "ms", "lower", "engine x compile matrix"),
    Layer("variant.tuple.refresh_p50_ms", "ms", "lower", "engine x compile matrix"),
    Layer("baseline.full_recompute.refresh_p50_ms", "ms", "lower",
          "recompute versus incremental on one workload"),
    # harness
    Layer("harness.gen_s", "s", "lower", "validity"),
    Layer("harness.generator_late_p95_ms", "ms", "lower", "validity of the open loop"),
    Layer("harness.trace_overhead_ratio", "ratio", "lower", "validity of the layer table"),
    Layer("harness.probes_missing", "count", "lower", "validity of the layer table"),
    Layer("harness.unattributed_share", "ratio", "lower", "a layer nobody probed"),
    Layer("harness.gc_full_ms", "ms", "lower",
          "mean cost of a full collection, run between operations: peak_rss_mb, and every "
          "latency once full collections run inside operations again"),
)


def benchmark_json() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median, the driver's measure of run-to-run
    spread (``statistics.quantiles(values, n=4)``); 0 when there is one run only."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (high - low) / middle if middle else 0.0


def p50_ms(seconds: Sequence[float]) -> float:
    return statistics.median(seconds) * 1e3


def p95_ms(seconds: Sequence[float]) -> float:
    return percentile(seconds, 0.95) * 1e3


# ----------------------------------------------------------------------
# Spans -> layer metrics
# ----------------------------------------------------------------------


def layer_metrics(spans: Sequence[Span]) -> Dict[str, Optional[float]]:
    """``calls`` / ``busy_ms`` / ``self_ms`` / ``p99_ms`` / ``rows_in`` per probe name.

    A layer's self time is its spans' duration minus what their direct child
    spans cover. Children run in the parent's task one after another, so
    their durations add up without overlap.
    """
    child: Dict[int, float] = {}
    durations: Dict[str, List[float]] = {}
    rows: Dict[str, int] = {}
    for span in spans:
        durations.setdefault(span.name, []).append(span.duration)
        rows[span.name] = rows.get(span.name, 0) + span.rows
        if span.parent is not None:
            key = id(span.parent)
            child[key] = child.get(key, 0.0) + span.duration
    self_time: Dict[str, float] = {}
    for span in spans:
        own = span.duration - child.get(id(span), 0.0)
        self_time[span.name] = self_time.get(span.name, 0.0) + own
    out: Dict[str, Optional[float]] = {}
    for name, values in durations.items():
        out[f"{name}.calls"] = len(values)
        out[f"{name}.busy_ms"] = sum(values) * 1e3
        out[f"{name}.self_ms"] = self_time[name] * 1e3
        out[f"{name}.p99_ms"] = percentile(values, 0.99) * 1e3
        out[f"{name}.rows_in"] = rows[name]
    return out


def top_level_share(spans: Sequence[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` that some top-level span covers.

    Top-level spans of different tasks overlap (one task's ``process_batch``
    is suspended while another's runs), so this is the union of the
    intervals, not their sum.
    """
    intervals = sorted(
        (max(span.start, start), min(span.end, end))
        for span in spans if span.parent is None
    )
    covered = 0.0
    reach = start
    for low, high in intervals:
        if high > max(low, reach):
            covered += high - max(low, reach)
            reach = high
    return covered / (end - start) if end > start else 0.0


def select_layers(
    computed: Mapping[str, Optional[float]], missing_prefixes: Iterable[str] = ()
) -> Dict[str, Dict[str, object]]:
    """Exactly the catalogue's per-layer metrics, in catalogue order, with units.

    A metric nothing produced is 0 (the layer did not run on this workload);
    one whose probe target is missing is ``None``.
    """
    gone = tuple(missing_prefixes)
    out: Dict[str, Dict[str, object]] = {}
    for layer in PER_LAYER:
        value = computed.get(layer.name, 0)  # present but None: its counter is gone
        if any(layer.name.startswith(prefix + ".") for prefix in gone):
            value = None
        out[layer.name] = {"value": value, "unit": layer.unit}
    return out
