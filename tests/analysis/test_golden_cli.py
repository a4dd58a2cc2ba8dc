"""Golden stdout of the prover and compile commands over the example specs.

``golden/cli/<command>.<txt|json>`` pins what ``python -m repro prove``,
``prove-sharding`` and ``prove-query`` print, in both formats,
over every ``examples/specs/*.json`` — the verdict lines, the witnesses
printed under them, the summary line and the JSON report. The certificate
goldens pin the files ``--certificates`` writes; these pin the terminal.
``golden/cli/compile-explain.txt`` pins the refresh plans
``python -m repro compile --explain`` prints for the same specs.
Regenerate after an intentional change with::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/analysis/test_golden_cli.py
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.__main__ import main

REPO = Path(__file__).parents[2]
GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
SPECS = sorted(
    path.relative_to(REPO).as_posix()
    for path in (REPO / "examples" / "specs").glob("*.json")
)

@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["prove", "prove-query", "prove-sharding"])
def test_stdout_matches_golden(command, fmt, capsys, monkeypatch):
    # Specs are passed repo-relative, as the CI steps pass them.
    monkeypatch.chdir(REPO)
    assert main([command, "--format", fmt, *SPECS]) == 0
    rendered = capsys.readouterr().out
    golden = GOLDEN_DIR / f"{command}.{'txt' if fmt == 'text' else 'json'}"
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        golden.write_text(rendered)
    assert golden.exists(), "golden stdout missing; regenerate with REGEN_GOLDEN=1"
    assert rendered == golden.read_text()


def test_compile_explain_matches_golden(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    # Some example specs are refused (the sweep exits 1); their lines are
    # pinned too.
    assert main(["compile", "--explain", *SPECS]) == 1
    rendered = capsys.readouterr().out
    golden = GOLDEN_DIR / "compile-explain.txt"
    if os.environ.get("REGEN_GOLDEN"):
        golden.write_text(rendered)
    assert golden.exists(), "golden stdout missing; regenerate with REGEN_GOLDEN=1"
    assert rendered == golden.read_text()
