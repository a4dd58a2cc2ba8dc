"""Unit tests for :mod:`repro.workloads.generator`."""

from __future__ import annotations

import random

import pytest

from repro import Database, complement_thm22
from repro.core.independence import verify_complement
from repro.workloads import (
    GeneratorConfig,
    random_catalog,
    random_database,
    random_update_stream,
    random_views,
)


class TestRandomCatalog:
    @pytest.mark.parametrize("seed", range(6))
    def test_structure(self, seed):
        catalog = random_catalog(seed)
        assert len(catalog.relation_names()) == 4
        # IND graph acyclic by construction: inclusion_order succeeds.
        assert len(catalog.inclusion_order()) == 4

    def test_config_respected(self):
        config = GeneratorConfig(n_relations=6, ind_probability=0.0)
        catalog = random_catalog(0, config)
        assert len(catalog.relation_names()) == 6
        assert catalog.inclusions() == ()

    def test_deterministic(self):
        assert random_catalog(42).describe() == random_catalog(42).describe()

    def test_inds_target_keys(self):
        for seed in range(10):
            catalog = random_catalog(seed)
            for ind in catalog.inclusions():
                target_key = catalog.key(ind.rhs)
                assert target_key is not None
                assert set(target_key) <= set(ind.rhs_attributes)


class TestRandomDatabase:
    @pytest.mark.parametrize("seed", range(6))
    def test_constraints_satisfied(self, seed):
        catalog = random_catalog(seed)
        db = random_database(seed, catalog, rows_per_relation=20)
        assert db.satisfies_constraints()

    def test_rows_generated(self):
        catalog = random_catalog(1, GeneratorConfig(ind_probability=0.0))
        db = random_database(1, catalog, rows_per_relation=25)
        for name in catalog.relation_names():
            assert len(db[name]) > 0

    def test_deterministic(self):
        catalog = random_catalog(3)
        first = random_database(9, catalog)
        second = random_database(9, catalog)
        for name in catalog.relation_names():
            assert first[name] == second[name]


class TestRandomViews:
    @pytest.mark.parametrize("seed", range(6))
    def test_views_are_psj_and_typed(self, seed):
        catalog = random_catalog(seed)
        views = random_views(seed, catalog, n_views=4)
        scope = {s.name: s.attributes for s in catalog.schemas()}
        assert len(views) == 4
        for view in views:
            psj = view.psj(scope)
            assert set(psj.relations) <= set(catalog.relation_names())
            view.definition.attributes(scope)

    def test_prefix(self):
        catalog = random_catalog(0)
        views = random_views(0, catalog, n_views=2, prefix="W")
        assert [v.name for v in views] == ["W0", "W1"]


class TestRandomUpdateStream:
    @pytest.mark.parametrize("seed", range(4))
    def test_stream_replays_validly(self, seed):
        catalog = random_catalog(seed)
        db = random_database(seed, catalog, rows_per_relation=15)
        stream = random_update_stream(seed, db, n_updates=10)
        assert stream  # something was generated
        replay = db.copy()
        for update in stream:
            replay.apply(update)  # raises on violation
        assert replay.satisfies_constraints()

    def test_source_database_untouched(self):
        catalog = random_catalog(2)
        db = random_database(2, catalog)
        before = db.state()
        random_update_stream(2, db, n_updates=5)
        assert db.state() == before


class TestEndToEndRandom:
    """The generators exist to feed the complement machinery: close the loop."""

    @pytest.mark.parametrize("seed", range(5))
    def test_complement_and_maintenance_on_random_workload(self, seed):
        from repro.core.independence import warehouse_state
        from repro.core.maintenance import refresh_state

        catalog = random_catalog(seed)
        db = random_database(seed, catalog, rows_per_relation=12)
        views = random_views(seed, catalog, n_views=3)
        spec = complement_thm22(catalog, views)
        ok, problems = verify_complement(spec, db.state())
        assert ok, problems

        warehouse = warehouse_state(spec, db.state())
        for update in random_update_stream(seed, db, n_updates=6):
            db.apply(update)
            warehouse, _, _ = refresh_state(spec, warehouse, update)
            assert warehouse == warehouse_state(spec, db.state())
