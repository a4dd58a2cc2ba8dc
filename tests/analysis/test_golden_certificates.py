"""Golden certificate files: one pinned prover document per example spec.

``golden/certificates/<stem>.cert.json`` pins the full certificate
document ``python -m repro prove --certificates`` writes for each
``examples/specs/*.json``. The prover is deterministic end to end (sorted
keys, sorted rows, seeded replay), so any diff is a semantic change to
the prover, the complement construction, or the example — review it as
such. Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden_certificates.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.kernel import PROVED, REFUTED, document_json
from repro.analysis.prover import prove_file

REPO = Path(__file__).parents[2]
SPEC_DIR = REPO / "examples" / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden" / "certificates"

STEMS = sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def prove_example(stem):
    result = prove_file(str(SPEC_DIR / f"{stem}.json"))
    # Pin a repo-relative spec path regardless of the runner's cwd.
    return result._replace(path=f"examples/specs/{stem}.json")


def test_there_are_example_specs():
    assert STEMS, "examples/specs is empty"


@pytest.mark.parametrize("stem", STEMS)
def test_every_example_spec_is_decided(stem):
    result = prove_example(stem)
    assert result.error is None
    assert result.verdict in (PROVED, REFUTED)
    assert result.ok, f"{stem}: {result.verdict} but expected {result.expect}"


@pytest.mark.parametrize("stem", STEMS)
def test_certificate_matches_golden(stem):
    rendered = document_json(prove_example(stem).document()) + "\n"
    golden = GOLDEN_DIR / f"{stem}.cert.json"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered)
    assert golden.exists(), "golden certificate missing; regenerate with REGEN_GOLDEN=1"
    assert rendered == golden.read_text()


def test_at_least_one_refuted_example_with_small_witness():
    refuted = [r for r in map(prove_example, STEMS) if r.verdict == REFUTED]
    assert refuted, "no deliberately non-independent example spec"
    for result in refuted:
        assert result.witness is not None
        assert result.witness.max_rows_per_relation() <= 3


def test_golden_documents_are_valid_json_with_version():
    for stem in STEMS:
        golden = GOLDEN_DIR / f"{stem}.cert.json"
        if golden.exists():
            document = json.loads(golden.read_text())
            assert document["version"] == 1
            assert document["spec"] == f"examples/specs/{stem}.json"
