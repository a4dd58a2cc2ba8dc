"""Unit tests for :mod:`repro.analysis.prover` and ``python -m repro prove``."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.analysis.kernel import (
    PROVED,
    REFUTED,
    UNKNOWN,
    FileResult,
    Verdict,
    decide_file,
    exit_code,
    render_text,
    report_document,
)
from repro.analysis.prover import (
    build_certificate,
    check_certificate,
    prove_target,
)
from repro.analysis.dataflow import spec_read_sets
from repro.analysis.specfile import load_target
from repro import Catalog, View, parse, specify

FIGURE1_SPEC = {
    "relations": [
        {"name": "Sale", "attributes": ["item", "clerk"]},
        {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]},
    ],
    "inclusions": [
        {
            "lhs": "Sale",
            "lhs_attributes": ["clerk"],
            "rhs": "Emp",
            "rhs_attributes": ["clerk"],
        }
    ],
    "views": [{"name": "Sold", "definition": "Sale join Emp"}],
}

LOSSY_SPEC = {
    "relations": [{"name": "Sale", "attributes": ["item", "clerk"]}],
    "views": [{"name": "Clerks", "definition": "pi[clerk](Sale)"}],
    "prover": {"mode": "views-only", "expect": "refuted"},
}

REPLICA_SPEC = {
    "relations": [
        {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]}
    ],
    "views": [{"name": "Staff", "definition": "Emp"}],
    "prover": {"mode": "views-only"},
}


def write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def decide(target, **options):
    """The one verdict the independence prover reaches on ``target``."""
    (verdict,) = prove_target(target, **options).verdicts
    return verdict


class TestProveTarget:
    def test_figure1_proved_with_certificate(self, tmp_path):
        result = decide(load_target(write(tmp_path, FIGURE1_SPEC)))
        assert result.verdict == PROVED
        assert result.ok
        assert result.certificate is not None
        assert result.certificate["dataflow"]["update_independent"] is True
        assert set(result.certificate["inversion"]) == {"Sale", "Emp"}

    def test_views_only_replica_proved(self, tmp_path):
        result = decide(load_target(write(tmp_path, REPLICA_SPEC)))
        assert result.verdict == PROVED
        assert result.facts["mode"] == "views-only"
        # Views-only inversions reference view names, never sources.
        refs = result.certificate["inversion"]["Emp"]["references"]
        assert refs == ["Staff"]

    def test_views_only_lossy_refuted_with_minimal_witness(self, tmp_path):
        result = decide(load_target(write(tmp_path, LOSSY_SPEC)))
        assert result.verdict == REFUTED
        assert result.ok  # expectation is "refuted"
        assert result.witness is not None
        assert result.witness.max_rows_per_relation() <= 3

    def test_non_psj_views_fall_back_to_search(self, tmp_path):
        spec = {
            "relations": [
                {"name": "A", "attributes": ["x"], "key": ["x"]},
                {"name": "B", "attributes": ["x"], "key": ["x"]},
            ],
            "views": [{"name": "V", "definition": "A minus B"}],
            "prover": {"expect": "refuted"},
        }
        result = decide(load_target(write(tmp_path, spec)))
        assert result.verdict == REFUTED

    def test_unknown_when_search_exhausts_without_collision(self, tmp_path):
        # The selection keeps every row of the derived {0, 1} domain, so
        # the bounded search finds no collision; yet the emptiness
        # analysis cannot prove C empty. Honest incompleteness: UNKNOWN.
        spec = {
            "relations": [{"name": "A", "attributes": ["x"]}],
            "views": [{"name": "V", "definition": "sigma[x >= 0](A)"}],
            "prover": {"mode": "views-only"},
        }
        result = decide(load_target(write(tmp_path, spec)))
        assert result.verdict == UNKNOWN
        assert "exhaustively" in result.detail

    def test_mode_override_wins(self, tmp_path):
        result = decide(
            load_target(write(tmp_path, FIGURE1_SPEC)), mode="views-only"
        )
        assert result.facts["mode"] == "views-only"
        assert result.verdict == REFUTED  # the join view alone is lossy


class TestCertificates:
    def _spec(self):
        catalog = Catalog()
        catalog.relation("Sale", ("item", "clerk"))
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        # The IND makes the replay databases actually join (the generator
        # draws Sale.clerk from Emp's keys), so a wrong inversion cannot
        # hide behind an empty Sold.
        catalog.inclusion("Sale", ("clerk",), "Emp")
        return specify(catalog, [View("Sold", parse("Sale join Emp"))])

    def test_roundtrip_certificate_checks_clean(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        assert check_certificate(spec.catalog, certificate) == []

    def test_certificate_facts_cover_catalog(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        kinds = {fact["kind"] for fact in certificate["facts"]}
        assert "key" in kinds
        assert "cover" in kinds

    def test_inversion_referencing_source_is_rejected(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        tampered = json.loads(json.dumps(certificate))
        tampered["inversion"]["Sale"]["expression"] = "Sale"
        problems = check_certificate(spec.catalog, tampered)
        assert any("source relation" in p for p in problems)

    def test_missing_inversion_is_rejected(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        tampered = json.loads(json.dumps(certificate))
        del tampered["inversion"]["Emp"]
        problems = check_certificate(spec.catalog, tampered)
        assert any("no inversion" in p for p in problems)

    def test_wrong_inversion_fails_numeric_replay(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        tampered = json.loads(json.dumps(certificate))
        # C_Emp alone misses the Emp rows that joined into Sold.
        tampered["inversion"]["Emp"]["expression"] = "C_Emp"
        problems = check_certificate(spec.catalog, tampered)
        assert any("replay" in p for p in problems)

    def test_bogus_key_fact_is_rejected(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        tampered = json.loads(json.dumps(certificate))
        tampered["facts"].append(
            {"kind": "key", "relation": "Sale", "attributes": ["item"]}
        )
        problems = check_certificate(spec.catalog, tampered)
        assert any("key fact" in p for p in problems)

    def test_unparseable_expression_is_rejected(self):
        spec = self._spec()
        certificate = build_certificate(spec, spec_read_sets(spec), "with-complement")
        tampered = json.loads(json.dumps(certificate))
        tampered["inversion"]["Sale"]["expression"] = "pi[]("
        problems = check_certificate(spec.catalog, tampered)
        assert any("parse" in p for p in problems)


class TestExitCodes:
    def _result(self, verdict, expect="proved", error=None):
        facts = {"mode": "with-complement", "method": "thm22"}
        item = Verdict("x.json", verdict, "d", expect, facts, error=error)
        return FileResult("x.json", verdicts=(item,))

    def test_all_expectations_met(self):
        results = [self._result(PROVED), self._result(REFUTED, expect="refuted")]
        assert exit_code(results) == 0
        assert exit_code(results, strict=True) == 0

    def test_unexpected_verdict_fails(self):
        assert exit_code([self._result(REFUTED)]) == 1

    def test_unknown_fails_only_under_strict(self):
        results = [self._result(UNKNOWN)]
        assert exit_code(results) == 0
        assert exit_code(results, strict=True) == 1

    def test_unknown_fails_when_refutation_expected(self):
        assert exit_code([self._result(UNKNOWN, expect="refuted")]) == 1

    def test_error_dominates(self):
        assert exit_code([self._result(UNKNOWN, error="boom")]) == 2


class TestRendering:
    def test_text_summary_counts_verdicts(self, tmp_path):
        results = [
            decide_file(write(tmp_path, FIGURE1_SPEC, "a.json"), prove_target),
            decide_file(write(tmp_path, LOSSY_SPEC, "b.json"), prove_target),
        ]
        text = render_text(results)
        assert "OK: 2 file(s), 1 proved, 1 refuted, 0 unknown" in text
        assert "<- differs" in text  # the witness is printed inline

    def test_json_document_shape(self, tmp_path):
        results = [decide_file(write(tmp_path, FIGURE1_SPEC), prove_target)]
        document = report_document(results)
        assert document["ok"] is True
        assert document["summary"]["proved"] == 1
        [entry] = document["results"]
        assert entry["verdict"] == PROVED
        assert "certificate" in entry


class TestCli:
    def test_prove_clean_exits_zero(self, tmp_path, capsys):
        assert main(["prove", write(tmp_path, FIGURE1_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "OK: 1 file(s)" in out

    def test_prove_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["prove", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().out

    def test_prove_json_format(self, tmp_path, capsys):
        assert main(["prove", "--format", "json", write(tmp_path, LOSSY_SPEC)]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["refuted"] == 1
        [entry] = document["results"]
        assert entry["witness"]["max_rows_per_relation"] <= 3

    def test_certificates_directory(self, tmp_path, capsys):
        path = write(tmp_path, FIGURE1_SPEC, "fig1.json")
        certs = tmp_path / "certs"
        assert main(["prove", "--certificates", str(certs), path]) == 0
        written = json.loads((certs / "fig1.cert.json").read_text())
        assert written["verdict"] == PROVED
        assert "inversion" in written["certificate"]

    def test_strict_fails_on_unknown(self, tmp_path, capsys):
        spec = {
            "relations": [{"name": "A", "attributes": ["x"]}],
            "views": [{"name": "V", "definition": "sigma[x >= 0](A)"}],
            "prover": {"mode": "views-only"},
        }
        path = write(tmp_path, spec)
        assert main(["prove", path]) == 0
        capsys.readouterr()
        assert main(["prove", "--strict", path]) == 1
        assert "UNKNOWN" in capsys.readouterr().out

    def test_max_model_size_flag(self, tmp_path, capsys):
        assert (
            main(["prove", "--max-model-size", "1", write(tmp_path, LOSSY_SPEC)])
            == 0
        )
        assert "REFUTED" in capsys.readouterr().out
