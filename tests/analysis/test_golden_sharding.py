"""Golden sharding certificates: one pinned prover document per sharded spec.

``golden/certificates/<stem>.sharding.json`` pins the full document
``python -m repro prove-sharding --certificates`` writes for each
``examples/specs/*.json`` that declares a ``"sharding"`` section. The
prover is deterministic end to end (sorted keys, sorted rows, seeded
replay, deterministic counterexample search), so any diff is a semantic
change to the shard-independence analysis, the routing math, or the
example — review it as such. Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden_sharding.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.concurrency import (
    check_sharding_certificate,
    prove_sharding_file,
    replay_interleaving,
    verify_sharding_witness,
)
from repro.analysis.kernel import PROVED, REFUTED, document_json
from repro.analysis.specfile import load_target
from repro.core.routing import ShardRouting

REPO = Path(__file__).parents[2]
SPEC_DIR = REPO / "examples" / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden" / "certificates"

SHARDED_STEMS = sorted(
    path.stem
    for path in SPEC_DIR.glob("*.json")
    if "sharding" in json.loads(path.read_text())
)


def prove_example(stem):
    result = prove_sharding_file(str(SPEC_DIR / f"{stem}.json"))
    # Pin a repo-relative spec path regardless of the runner's cwd.
    return result._replace(path=f"examples/specs/{stem}.json")


def test_there_are_sharded_example_specs():
    assert SHARDED_STEMS, "no example spec declares a sharding section"


@pytest.mark.parametrize("stem", SHARDED_STEMS)
def test_every_sharded_example_is_decided(stem):
    result = prove_example(stem)
    assert result.error is None
    assert result.verdict in (PROVED, REFUTED)
    assert result.ok, f"{stem}: {result.verdict} but expected {result.expect}"


@pytest.mark.parametrize("stem", SHARDED_STEMS)
def test_certificate_matches_golden(stem):
    rendered = document_json(prove_example(stem).document()) + "\n"
    golden = GOLDEN_DIR / f"{stem}.sharding.json"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered)
    assert golden.exists(), "golden certificate missing; regenerate with REGEN_GOLDEN=1"
    assert rendered == golden.read_text()


@pytest.mark.parametrize("stem", SHARDED_STEMS)
def test_golden_certificate_revalidates(stem):
    """Checked-in PROVED certificates replay clean against today's code."""
    document = json.loads((GOLDEN_DIR / f"{stem}.sharding.json").read_text())
    target = load_target(str(SPEC_DIR / f"{stem}.json"))
    if document["verdict"] != PROVED:
        return
    problems = check_sharding_certificate(target.catalog, document["certificate"])
    assert problems == []


def test_refuted_examples_carry_replayable_witnesses():
    refuted = [r for r in map(prove_example, SHARDED_STEMS) if r.verdict == REFUTED]
    assert refuted, "no deliberately refuted sharded example spec"
    for result in refuted:
        witness = result.witness
        assert witness is not None
        if witness["kind"] == "interleaving":
            # Both orders must really diverge when replayed from scratch.
            from repro.analysis.concurrency import InterleavingWitness

            rebuilt = InterleavingWitness(
                relation=witness["relation"],
                attributes=tuple(witness["attributes"]),
                start=tuple(tuple(r) for r in witness["start"]),
                first_inserts=tuple(tuple(r) for r in witness["first"]["inserts"]),
                first_deletes=tuple(tuple(r) for r in witness["first"]["deletes"]),
                second_inserts=tuple(tuple(r) for r in witness["second"]["inserts"]),
                second_deletes=tuple(tuple(r) for r in witness["second"]["deletes"]),
                first_then_second=tuple(
                    tuple(r) for r in witness["first_then_second"]
                ),
                second_then_first=tuple(
                    tuple(r) for r in witness["second_then_first"]
                ),
            )
            one, other = replay_interleaving(rebuilt)
            assert one != other
            assert one == rebuilt.first_then_second
            assert other == rebuilt.second_then_first
        else:
            assert witness["kind"] == "sharding"
            target = load_target(
                str(SPEC_DIR / Path(result.path).name)
            )
            from repro.core.complement import specify

            spec = specify(target.catalog, target.views)
            routings = {
                r.relation: ShardRouting(
                    r.relation, r.attribute, boundaries=r.boundaries, shards=r.shards
                )
                for r in target.sharding.routings
            }
            problems = verify_sharding_witness(
                spec.definitions_over_sources(),
                spec.source_scope(),
                routings,
                witness,
            )
            assert problems == []


def test_golden_documents_are_valid_json_with_version():
    for stem in SHARDED_STEMS:
        golden = GOLDEN_DIR / f"{stem}.sharding.json"
        document = json.loads(golden.read_text())
        assert document["version"] == 1
        assert document["kind"] == "sharding"
        assert document["spec"] == f"examples/specs/{stem}.json"
        if document["verdict"] == PROVED:
            assert "digest" in document
            assert "plan_cache_key" in document["certificate"]
