"""Property: the one refresh path equals full recomputation, every way it runs.

:func:`repro.core.maintenance.refresh_state` interprets fused plans cut
for the update's side mask. Over random schemas, PSJ views and valid
update streams (:mod:`repro.workloads.generator`) it must agree with the
plan-free ``w' = W(u(W^{-1}(w)))`` of
:func:`~repro.core.maintenance.full_recompute_state` under every
``(engine, cached, fastpath)`` configuration, for insert-only, delete-only
and mixed updates alike.
"""

from __future__ import annotations

import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import specify
from repro.algebra.evaluator import EvaluationCache, evaluate_all
from repro.core.maintenance import full_recompute_state, refresh_state, side_mask
from repro.errors import ReproError
from repro.workloads.generator import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_update,
    random_views,
)

MODES = ("insert-only", "delete-only", "mixed")
CONFIGURATIONS = tuple(
    itertools.product(("tuple", "columnar"), (True, False), (True, False))
)
GENERATOR = GeneratorConfig()


def draw_update(rng, mirror, mode):
    """A valid update of the wanted side mask (``mirror`` advances), or None."""

    def one_sided(insert_fraction):
        return random_update(
            rng, mirror, batch_size=2, insert_fraction=insert_fraction,
            domain_size=GENERATOR.domain_size,
        )

    if mode == "insert-only":
        return one_sided(1.0)
    if mode == "delete-only":
        return one_sided(0.0)
    inserted, deleted = one_sided(1.0), one_sided(0.0)
    if inserted is None or deleted is None:
        return None
    return inserted.compose(deleted)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    modes=st.lists(st.sampled_from(MODES), min_size=1, max_size=4),
)
def test_refresh_state_equals_full_recompute(seed, modes):
    rng = random.Random(seed)
    catalog = random_catalog(rng, GENERATOR)
    database = random_database(rng, catalog, 10, GENERATOR.domain_size)
    views = random_views(rng, catalog, n_views=3, domain_size=GENERATOR.domain_size)
    try:
        spec = specify(catalog, views)
    except ReproError:
        assume(False)
    mirror = database.copy()
    reference = evaluate_all(spec.definitions_over_sources(), database.state())
    states = {configuration: reference for configuration in CONFIGURATIONS}
    caches = {
        configuration: EvaluationCache() if configuration[1] else None
        for configuration in CONFIGURATIONS
    }
    for step, mode in enumerate(modes):
        update = draw_update(rng, mirror, mode)
        assume(update is not None and side_mask(update) == mode)
        reference = full_recompute_state(spec, reference, update)
        # Relation equality ignores attribute order (plans and definitions
        # may join in different orders).
        assert reference == evaluate_all(
            spec.definitions_over_sources(), mirror.state()
        )
        for configuration in CONFIGURATIONS:
            engine, _, fastpath = configuration
            states[configuration], _ = refresh_state(
                spec,
                states[configuration],
                update,
                cache=caches[configuration],
                fastpath=fastpath,
                engine=engine,
            )
            assert states[configuration] == reference, (step, mode, configuration)
