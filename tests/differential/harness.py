"""The differential-testing oracle: four maintenance tracks, step-locked.

Caching and invalidation are the whole correctness risk of the fast path,
so this harness checks them the only way that scales: generate random
schemas, PSJ views, and valid update streams (``repro.workloads.generator``)
and assert, after *every* step, that three configurations of the one
refresh path and one implementation that shares nothing with it agree
exactly:

1. **fast** — the production path: persistent
   :class:`~repro.algebra.evaluator.EvaluationCache` shared across
   refreshes, semi-/anti-join fast paths on;
2. **uncached** — the seed evaluator: fresh memo per refresh, fast paths
   off (:func:`~repro.core.maintenance.refresh_state` with ``cache=None``,
   ``fastpath=False``);
3. **oracle** — full recompute from sources: a mirror database advanced by
   each update, with every warehouse relation re-evaluated from its
   definition over base relations (no incremental machinery and no
   refresh plan at all — the plan-independent reference);
4. **columnar** — the engine axis: a second cached warehouse running the
   dictionary-coded batch kernels (``engine="columnar"``), replayed in
   lockstep with the tuple-set tracks. This is what lets
   ``REPRO_ENGINE=columnar`` default on eventually: every random workload
   must agree extensionally with the tuple engine after every step.
   Toggled by ``DifferentialConfig.columnar_track`` (on by default).

Tracks 1, 2 and 4 interpret the same fused plans
(:mod:`repro.compiler.fuse`) under different engines, caches and fast-path
settings; track 3 is what catches a wrong plan.

Any divergence is reported with enough context to replay it: the schema
seed, the step index, the relation, and the differing row sets.

Deterministic given its seed; used by ``tests/differential/`` and by the CI
smoke runner ``scripts/differential_smoke.py``.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro import Warehouse, specify
from repro.algebra.evaluator import evaluate_all
from repro.core.maintenance import refresh_state
from repro.errors import ReproError
from repro.storage.relation import Relation
from repro.workloads.generator import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_update,
    random_views,
)


class DifferentialConfig(NamedTuple):
    """Knobs for one differential run (all defaults are CI-fast)."""

    n_schemas: int = 20
    n_updates: int = 12
    seed: int = 20260806
    rows_per_relation: int = 20
    batch_size: int = 3
    insert_fraction: float = 0.55
    n_views: int = 3
    method: str = "thm22"
    generator: GeneratorConfig = GeneratorConfig()
    max_schema_attempts: int = 200
    columnar_track: bool = True


class Disagreement(NamedTuple):
    """One detected divergence, with replay coordinates."""

    schema_seed: int
    step: int
    tracks: str  # e.g. "fast vs oracle"
    relation: str
    detail: str

    def __str__(self) -> str:
        return (
            f"schema seed {self.schema_seed}, step {self.step}: {self.tracks} "
            f"disagree on {self.relation}: {self.detail}"
        )


class DifferentialReport(NamedTuple):
    """The outcome of a run: coverage counters plus any disagreements."""

    schemas_run: int
    schemas_skipped: int
    steps_run: int
    disagreements: List[Disagreement]

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.disagreements)} DISAGREEMENTS"
        return (
            f"differential oracle: {status} — {self.schemas_run} schemas, "
            f"{self.steps_run} update steps ({self.schemas_skipped} schema "
            f"candidates skipped)"
        )


def _canonical_rows(relation: Relation) -> Tuple[tuple, ...]:
    attrs = tuple(sorted(relation.attribute_set))
    return tuple(sorted(relation.reorder(attrs).rows, key=repr))


def _diff_states(
    schema_seed: int,
    step: int,
    label_a: str,
    state_a: Dict[str, Relation],
    label_b: str,
    state_b: Dict[str, Relation],
) -> List[Disagreement]:
    tracks = f"{label_a} vs {label_b}"
    out: List[Disagreement] = []
    for name in sorted(set(state_a) | set(state_b)):
        if name not in state_a or name not in state_b:
            out.append(
                Disagreement(
                    schema_seed, step, tracks, name, "relation missing from one track"
                )
            )
            continue
        rows_a = _canonical_rows(state_a[name])
        rows_b = _canonical_rows(state_b[name])
        if rows_a != rows_b:
            only_a = set(rows_a) - set(rows_b)
            only_b = set(rows_b) - set(rows_a)
            out.append(
                Disagreement(
                    schema_seed,
                    step,
                    tracks,
                    name,
                    f"only in {label_a}: {sorted(only_a, key=repr)[:5]!r}, "
                    f"only in {label_b}: {sorted(only_b, key=repr)[:5]!r}",
                )
            )
    return out


def run_schema(
    schema_seed: int,
    config: DifferentialConfig,
    trace_sink=None,
) -> Optional[Tuple[int, List[Disagreement]]]:
    """One random schema: build the lockstep tracks, replay one update stream.

    Returns ``(steps_run, disagreements)``, or ``None`` when the random
    draw is unusable (specification failed, or the update generator could
    not produce a single valid update — both legitimate outcomes of random
    schema generation, counted as skips by :func:`run_differential`).

    ``trace_sink`` (a :class:`~repro.obs.trace.TraceCollector`, e.g. a
    :class:`~repro.obs.trace.JsonlSink`) enables tracing on the *fast*
    track and streams every refresh trace there — CI uploads the resulting
    JSONL as an artifact, so a differential failure comes with the full
    operator-level story of what the fast path executed.
    """
    rng = random.Random(schema_seed)
    catalog = random_catalog(rng, config.generator)
    database = random_database(
        rng, catalog, config.rows_per_relation, config.generator.domain_size
    )
    views = random_views(
        rng, catalog, n_views=config.n_views, domain_size=config.generator.domain_size
    )
    try:
        spec = specify(catalog, views, method=config.method)
    except ReproError:
        return None

    definitions = spec.definitions_over_sources()

    fast = Warehouse(spec, cached=True)
    if trace_sink is not None:
        fast.enable_tracing(capacity=1, sink=trace_sink)
    fast.initialize(database)
    uncached_state = {name: rel for name, rel in fast.state.items()}
    columnar = None
    if config.columnar_track:
        columnar = Warehouse(spec, cached=True, engine="columnar")
        columnar.initialize(database)
    mirror = database.copy()

    steps = 0
    disagreements: List[Disagreement] = []
    for step in range(config.n_updates):
        update = random_update(
            rng,
            mirror,  # advanced in place: the mirror IS the oracle's source state
            batch_size=config.batch_size,
            insert_fraction=config.insert_fraction,
            domain_size=config.generator.domain_size,
        )
        if update is None:
            break

        # Track 1: the fast path (persistent cache, fast paths on).
        fast.apply(update)
        # Track 2: the seed evaluator (fresh memo per refresh, no fast paths).
        uncached_state, _ = refresh_state(
            spec, uncached_state, update, cache=None, fastpath=False
        )
        # Track 3: the oracle — recompute every warehouse relation from the
        # advanced source state.
        oracle_state = evaluate_all(definitions, mirror.state(), fastpath=False)

        # Track 4 (engine axis): the columnar kernels, same update stream.
        if columnar is not None:
            columnar.apply(update)

        disagreements.extend(
            _diff_states(schema_seed, step, "fast", fast.state, "uncached", uncached_state)
        )
        disagreements.extend(
            _diff_states(schema_seed, step, "fast", fast.state, "oracle", oracle_state)
        )
        if columnar is not None:
            disagreements.extend(
                _diff_states(
                    schema_seed, step, "fast", fast.state, "columnar", columnar.state
                )
            )
        steps += 1
    if steps == 0:
        return None
    return steps, disagreements


def run_differential(
    config: DifferentialConfig = DifferentialConfig(),
    trace_sink=None,
) -> DifferentialReport:
    """Run the full oracle: ``config.n_schemas`` usable schemas, step-locked.

    Unusable random draws are skipped (and counted) until the schema quota
    is met or ``config.max_schema_attempts`` candidates have been tried.
    ``trace_sink`` is forwarded to every :func:`run_schema` (JSONL trace
    output of the fast track).
    """
    schemas_run = 0
    skipped = 0
    steps_run = 0
    disagreements: List[Disagreement] = []
    for attempt in range(config.max_schema_attempts):
        if schemas_run >= config.n_schemas:
            break
        schema_seed = config.seed + attempt
        outcome = run_schema(schema_seed, config, trace_sink=trace_sink)
        if outcome is None:
            skipped += 1
            continue
        steps, found = outcome
        schemas_run += 1
        steps_run += steps
        disagreements.extend(found)
    return DifferentialReport(schemas_run, skipped, steps_run, disagreements)
