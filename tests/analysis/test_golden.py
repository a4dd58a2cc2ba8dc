"""Golden-file tests: one spec fixture per diagnostic code.

Each ``specs/<code>_*.json`` fixture triggers exactly the diagnostic its
name announces; ``golden/<name>.txt`` pins the full rendered lint output
(text format, including paper references and fix hints). Regenerate after
an intentional wording change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden.py

and review the diff like any other code change.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import lint_file, render_text

SPEC_DIR = Path(__file__).parent / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden"

# Fixtures whose diagnostic only fires under a specific complement method.
METHODS = {
    "w0041_unpruned": "prop22",
    "w0042_no_certificate": "trivial",
}

FIXTURES = sorted(path.stem for path in SPEC_DIR.glob("*.json"))


def expected_code(stem: str) -> str:
    return stem.split("_")[0].upper()


@pytest.mark.parametrize("stem", FIXTURES)
def test_fixture_triggers_its_code(stem):
    report = lint_file(
        str(SPEC_DIR / f"{stem}.json"), method=METHODS.get(stem, "thm22")
    )
    assert report.error is None
    assert expected_code(stem) in {d.code for d in report.diagnostics}


@pytest.mark.parametrize("stem", FIXTURES)
def test_rendered_output_matches_golden(stem):
    report = lint_file(
        str(SPEC_DIR / f"{stem}.json"), method=METHODS.get(stem, "thm22")
    )
    # Pin only the diagnostics, not the absolute fixture path.
    rendered = render_text([report._replace(path=f"specs/{stem}.json")])
    golden = GOLDEN_DIR / f"{stem}.txt"
    if os.environ.get("REGEN_GOLDEN"):
        golden.write_text(rendered + "\n")
    assert golden.exists(), f"golden file missing; regenerate with REGEN_GOLDEN=1"
    assert rendered + "\n" == golden.read_text()


def test_every_wxxxx_code_has_a_fixture():
    from repro.analysis import CATALOG

    covered = {expected_code(stem) for stem in FIXTURES}
    lint_codes = {code for code in CATALOG if code.startswith("W")}
    assert lint_codes <= covered


def test_docs_catalog_documents_every_code():
    from repro.analysis import CATALOG

    text = (Path(__file__).parents[2] / "docs" / "lint.md").read_text()
    missing = [code for code in CATALOG if code not in text]
    assert missing == [], f"docs/lint.md lacks {missing}"
