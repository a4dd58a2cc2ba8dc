"""The engine axis of the differential oracle, plus sanitizer coverage.

``test_differential.py`` already replays every workload with the columnar
track on (the :class:`DifferentialConfig` default). These tests pin the
axis itself: the track really runs the columnar engine, divergence in a
kernel is actually caught, ``REPRO_ENGINE=columnar`` wires through the
process default, and the ``REPRO_CHECK_INVARIANTS=1`` dataflow sanitizer
accepts the columnar traced path (span-name parity with the tuple engine)
across a full random replay.
"""

from __future__ import annotations

import pytest

from repro import Warehouse, specify
from repro.views.psj import View
from repro.algebra.parser import parse
from repro.schema import Catalog

from .harness import DifferentialConfig, run_schema


SMOKE = DifferentialConfig(n_updates=8)


def _small_catalog():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


class TestColumnarTrack:
    def test_columnar_track_replays_clean(self):
        outcome = run_schema(SMOKE.seed, SMOKE)
        assert outcome is not None
        steps, disagreements = outcome
        assert steps > 0
        assert not disagreements, "\n".join(str(d) for d in disagreements)

    def test_track_is_toggleable_and_deterministic(self):
        config = SMOKE._replace(columnar_track=False)
        without = run_schema(config.seed, config)
        with_track = run_schema(SMOKE.seed, SMOKE)
        assert without is not None and with_track is not None
        # Same steps and (clean) disagreements either way: the columnar
        # track adds assertions, not workload.
        assert without == with_track

    def test_axis_detects_kernel_divergence(self, monkeypatch):
        """The axis is only trustworthy if a broken kernel actually trips it."""
        from repro.storage import engine as engine_mod
        from repro.storage.columnar import ColumnarTable

        # Pin the reference tracks to the tuple engine: under a columnar
        # process default (the CI engine-axis job) every track would run
        # the corrupted kernel and agree on the wrong answer.
        monkeypatch.setattr(engine_mod, "DEFAULT_ENGINE", engine_mod.ENGINE_TUPLE)

        original = ColumnarTable.union

        def corrupted(self, other):
            result = original(self, other)
            if len(result) > 2:  # drop one row from large unions
                return result._take(range(len(result._as_dense()) - 1))
            return result

        monkeypatch.setattr(ColumnarTable, "union", corrupted)
        outcome = run_schema(SMOKE.seed, SMOKE)
        assert outcome is not None
        _, disagreements = outcome
        assert any("columnar" in d.tracks for d in disagreements)

    def test_sanitizer_passes_columnar_replay(self, monkeypatch):
        """REPRO_CHECK_INVARIANTS=1: runtime read sets check out columnar-ly.

        The sanitizer cross-checks each refresh's traced ``read`` spans
        against the static dataflow analysis; the columnar traced path must
        emit the same span names/attributes for this to hold.
        """
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        outcome = run_schema(SMOKE.seed, SMOKE)
        assert outcome is not None
        steps, disagreements = outcome
        assert steps > 0 and not disagreements


class TestEngineDefaultWiring:
    def test_env_default_selects_columnar(self, monkeypatch):
        from repro.storage import engine as engine_mod

        monkeypatch.setattr(engine_mod, "DEFAULT_ENGINE", engine_mod.ENGINE_COLUMNAR)
        spec = specify(_small_catalog(), [View("Sold", parse("Sale join Emp"))])
        warehouse = Warehouse(spec)
        assert warehouse.engine == "columnar"

    def test_explicit_engine_overrides_default(self):
        spec = specify(_small_catalog(), [View("Sold", parse("Sale join Emp"))])
        assert Warehouse(spec, engine="tuple").engine == "tuple"
        assert Warehouse(spec, engine="columnar").engine == "columnar"

    def test_unknown_engine_rejected(self):
        from repro.errors import EvaluationError

        spec = specify(_small_catalog(), [View("Sold", parse("Sale join Emp"))])
        with pytest.raises(EvaluationError):
            Warehouse(spec, engine="vectorised")

    def test_environment_parsing(self, monkeypatch):
        from repro.errors import EvaluationError
        from repro.storage.engine import _engine_from_environment

        assert _engine_from_environment() in ("tuple", "columnar")
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert _engine_from_environment() == "columnar"
        for value, engine in [
            ("", "columnar"),
            ("columnar", "columnar"),
            ("tuple", "tuple"),
            (" Tuple ", "tuple"),
        ]:
            monkeypatch.setenv("REPRO_ENGINE", value)
            assert _engine_from_environment() == engine
        # A typo must not silently select the default engine.
        monkeypatch.setenv("REPRO_ENGINE", "tupel")
        with pytest.raises(EvaluationError, match="unknown evaluation engine 'tupel'"):
            _engine_from_environment()
