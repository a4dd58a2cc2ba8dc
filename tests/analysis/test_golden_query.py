"""Golden query-translation certificates: one pinned document per spec.

``golden/certificates/<stem>.query.json`` pins the full document
``python -m repro prove-query --certificates`` writes for each
``examples/specs/*.json`` — every example spec receives per-query
PROVED/REFUTED/UNKNOWN verdicts (declared ``"queries"`` section or
synthesized identity queries). The prover is deterministic end to end
(sorted keys, sorted rows, seeded replay, deterministic witness search),
so any diff is a semantic change to the translation machinery, the cost
model, or the example — review it as such. Regenerate after an
intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden_query.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.algebra.parser import parse
from repro.analysis.kernel import (
    PROVED,
    QUERY_KIND,
    REFUTED,
    UNKNOWN,
    AnswerPair,
    Witness,
    decide_file,
    document_json,
)
from repro.analysis.query import (
    check_query_certificate,
    prove_queries_target,
    verify_query_witness,
)
from repro.analysis.specfile import load_target
from repro.storage.relation import Relation

REPO = Path(__file__).parents[2]
SPEC_DIR = REPO / "examples" / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden" / "certificates"

STEMS = sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def prove_example(stem):
    path = str(SPEC_DIR / f"{stem}.json")
    result = decide_file(path, prove_queries_target, QUERY_KIND)
    # Pin a repo-relative spec path regardless of the runner's cwd.
    return result._replace(path=f"examples/specs/{stem}.json")


def witness_definitions(stem, target):
    """The warehouse definitions the refutation search ran against."""
    return {view.name: view.definition for view in target.views}


def test_there_are_example_specs():
    assert STEMS, "examples/specs is empty"


@pytest.mark.parametrize("stem", STEMS)
def test_every_example_spec_queries_are_decided(stem):
    result = prove_example(stem)
    assert result.error is None
    assert result.verdicts, f"{stem}: no query received a verdict"
    for verdict in result.verdicts:
        assert verdict.verdict in (PROVED, REFUTED, UNKNOWN)
        assert verdict.ok, (
            f"{stem}/{verdict.subject}: {verdict.verdict} but expected "
            f"{verdict.expect} ({verdict.error})"
        )


@pytest.mark.parametrize("stem", STEMS)
def test_certificate_matches_golden(stem):
    rendered = document_json(prove_example(stem).document()) + "\n"
    golden = GOLDEN_DIR / f"{stem}.query.json"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered)
    assert golden.exists(), "golden certificate missing; regenerate with REGEN_GOLDEN=1"
    assert rendered == golden.read_text()


@pytest.mark.parametrize("stem", STEMS)
def test_golden_certificates_revalidate(stem):
    """Checked-in PROVED certificates replay clean against today's code."""
    document = json.loads((GOLDEN_DIR / f"{stem}.query.json").read_text())
    target = load_target(str(SPEC_DIR / f"{stem}.json"))
    checked = 0
    for entry in document["queries"]:
        if entry["verdict"] != PROVED:
            continue
        problems = check_query_certificate(target.catalog, entry["certificate"])
        assert problems == [], f"{stem}/{entry['name']}: {problems}"
        checked += 1
    if document["queries"] and all(
        entry["verdict"] == PROVED for entry in document["queries"]
    ):
        assert checked == len(document["queries"])


def test_refuted_queries_carry_replayable_witnesses():
    refuted = [
        (stem, verdict)
        for stem in STEMS
        for verdict in prove_example(stem).verdicts
        if verdict.verdict == REFUTED
    ]
    assert refuted, "no deliberately refuted query in any example spec"
    for stem, verdict in refuted:
        witness = verdict.witness
        assert witness is not None
        target = load_target(str(SPEC_DIR / f"{stem}.json"))
        problems = verify_query_witness(
            target.catalog,
            witness_definitions(stem, target),
            parse(verdict.facts["query"]),
            witness,
        )
        assert problems == [], f"{stem}/{verdict.subject}: {problems}"


def test_golden_witnesses_replay_from_json_alone():
    """REFUTED documents re-verify without trusting in-memory state."""
    replayed = 0
    for stem in STEMS:
        document = json.loads((GOLDEN_DIR / f"{stem}.query.json").read_text())
        target = load_target(str(SPEC_DIR / f"{stem}.json"))
        for entry in document["queries"]:
            if entry["verdict"] != REFUTED:
                continue
            doc = entry["witness"]
            attributes = {
                name: tuple(attrs) for name, attrs in doc["attributes"].items()
            }
            witness = Witness(
                left={
                    name: Relation(
                        attributes[name], [tuple(r) for r in rows]
                    )
                    for name, rows in doc["left"].items()
                },
                right={
                    name: Relation(
                        attributes[name], [tuple(r) for r in rows]
                    )
                    for name, rows in doc["right"].items()
                },
                answers=AnswerPair(
                    query=doc["query"],
                    attributes=tuple(doc["answer_attributes"]),
                    left=tuple(tuple(r) for r in doc["left_answer"]),
                    right=tuple(tuple(r) for r in doc["right_answer"]),
                ),
            )
            problems = verify_query_witness(
                target.catalog,
                witness_definitions(stem, target),
                parse(doc["query"]),
                witness,
            )
            assert problems == [], f"{stem}/{entry['name']}: {problems}"
            replayed += 1
    assert replayed, "no golden REFUTED witness to replay"


def test_at_least_one_of_each_verdict_across_examples():
    verdicts = {
        verdict.verdict for stem in STEMS for verdict in prove_example(stem).verdicts
    }
    assert PROVED in verdicts
    assert REFUTED in verdicts
    assert UNKNOWN in verdicts, (
        "no honest-UNKNOWN example query; selective_clerks.json should pin one"
    )


def test_golden_documents_are_valid_json_with_version():
    for stem in STEMS:
        golden = GOLDEN_DIR / f"{stem}.query.json"
        document = json.loads(golden.read_text())
        assert document["version"] == 1
        assert document["kind"] == "query-translation"
        assert document["spec"] == f"examples/specs/{stem}.json"
        for entry in document["queries"]:
            if entry["verdict"] == PROVED:
                assert "digest" in entry
                assert entry["certificate"]["read_set"], entry["name"]


def test_seeded_certificate_corruption_fails_loudly():
    """Acceptance: a tampered golden certificate must not revalidate."""
    corrupted = 0
    for stem in STEMS:
        document = json.loads((GOLDEN_DIR / f"{stem}.query.json").read_text())
        target = load_target(str(SPEC_DIR / f"{stem}.json"))
        sources = sorted(target.catalog.relation_names())
        for entry in document["queries"]:
            if entry["verdict"] != PROVED:
                continue
            # Corrupt the optimized plan to read a source relation.
            tampered = dict(entry["certificate"])
            tampered["optimized"] = sources[0]
            assert check_query_certificate(target.catalog, tampered), (
                f"{stem}/{entry['name']}: source-reading corruption passed"
            )
            corrupted += 1
            break
    assert corrupted, "no PROVED certificate available to corrupt"
