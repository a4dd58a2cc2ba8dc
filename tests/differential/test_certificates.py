"""Differential replay of the shipped prover certificates.

The golden certificates under ``tests/analysis/golden/certificates`` are
claims: PROVED documents claim their inversion expressions reconstruct
every source relation from the warehouse image; REFUTED documents claim
their witness pair breaks injectivity. This suite re-checks both claims
from the JSON alone — parse the expressions back, regenerate random
constraint-satisfying databases, and replay — without trusting any state
the prover held when it wrote them. A certificate that stops replaying
is a real regression in the complement construction, the algebra
evaluator, or the serialization, caught here rather than in production.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.kernel import Witness
from repro.analysis.prover import check_certificate, verify_witness
from repro.analysis.specfile import load_target
from repro.algebra.parser import parse
from repro.storage.relation import Relation

REPO = Path(__file__).parents[2]
SPEC_DIR = REPO / "examples" / "specs"
CERT_DIR = REPO / "tests" / "analysis" / "golden" / "certificates"

STEMS = sorted(path.stem.replace(".cert", "") for path in CERT_DIR.glob("*.cert.json"))


def load(stem):
    document = json.loads((CERT_DIR / f"{stem}.cert.json").read_text())
    target = load_target(str(SPEC_DIR / f"{stem}.json"))
    return document, target


def test_every_example_spec_has_a_certificate():
    specs = {path.stem for path in SPEC_DIR.glob("*.json")}
    assert specs == set(STEMS)


@pytest.mark.parametrize("stem", STEMS)
def test_certificate_replays_from_json_alone(stem):
    document, target = load(stem)
    if document["verdict"] != "PROVED":
        pytest.skip("only PROVED documents carry an inversion certificate")
    problems = check_certificate(target.catalog, document["certificate"])
    assert problems == [], f"{stem}: {problems}"


@pytest.mark.parametrize("stem", STEMS)
def test_witness_replays_from_json_alone(stem):
    document, target = load(stem)
    if document["verdict"] != "REFUTED":
        pytest.skip("only REFUTED documents carry a witness")
    witness_doc = document["witness"]
    attributes = {
        name: tuple(attrs) for name, attrs in witness_doc["attributes"].items()
    }

    def side(key):
        return {
            name: Relation(attributes[name], [tuple(row) for row in rows])
            for name, rows in witness_doc[key].items()
        }

    witness = Witness(side("left"), side("right"))
    definitions = {view.name: view.definition for view in target.views}
    assert verify_witness(target.catalog, definitions, witness) == []
    assert witness.max_rows_per_relation() <= 3
    assert witness_doc["differs_in"] == list(witness.differing_relations())


@pytest.mark.parametrize("stem", STEMS)
def test_proved_inversions_parse_and_stay_off_the_sources(stem):
    document, target = load(stem)
    if document["verdict"] != "PROVED":
        pytest.skip("only PROVED documents carry an inversion certificate")
    sources = set(target.catalog.relation_names())
    inversion = document["certificate"]["inversion"]
    assert set(inversion) == sources
    for relation, entry in inversion.items():
        expression = parse(entry["expression"])
        assert not (expression.relation_names() & sources), relation
        assert sorted(expression.relation_names() & set(entry["references"])) == list(
            entry["references"]
        )
