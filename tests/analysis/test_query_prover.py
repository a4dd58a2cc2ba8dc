"""Unit tests for :mod:`repro.analysis.query` and ``python -m repro prove-query``."""

from __future__ import annotations

import json

import pytest

from repro import Catalog, parse
from repro.__main__ import main
from repro.analysis.kernel import (
    PROVED,
    REFUTED,
    UNKNOWN,
    Witness,
    exit_code,
    shrink,
)
from repro.analysis.query import (
    DEFAULT_ROW_ESTIMATE,
    QueryProofResult,
    QueryVerdict,
    check_query_certificate,
    estimate_cost,
    prove_queries_file,
    search_query_counterexample,
    verify_query_witness,
)
from repro.analysis.specfile import load_target

INVERTIBLE_SPEC = {
    "relations": [
        {"name": "Sale", "attributes": ["item", "clerk"]},
        {"name": "Emp", "attributes": ["clerk", "age"], "key": ["clerk"]},
    ],
    "views": [{"name": "Sold", "definition": "Sale join Emp"}],
}

LOSSY_SPEC = {
    "relations": [{"name": "Sale", "attributes": ["item", "clerk"]}],
    "views": [{"name": "Clerks", "definition": "pi[clerk](Sale)"}],
    "prover": {"mode": "views-only", "expect": "refuted"},
    "lint": {"ignore": {"W0031": "deliberately lossy test spec"}},
}


def write(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def with_queries(base, items, **options):
    spec = json.loads(json.dumps(base))
    spec["queries"] = dict({"items": items}, **options)
    return spec


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


SCOPE = {"Sold": ("item", "clerk", "age"), "Dim": ("region",)}


class TestCostModel:
    def test_scan_uses_declared_estimate(self):
        cost = estimate_cost(parse("Sold"), SCOPE, rows={"Sold": 70})
        assert cost.total == 70
        assert cost.rows_out == 70
        (op,) = cost.operators
        assert (op.operator, op.kernel) == ("scan", "columnar.scan")

    def test_scan_defaults_when_no_estimate(self):
        cost = estimate_cost(parse("Sold"), SCOPE)
        assert cost.total == DEFAULT_ROW_ESTIMATE

    def test_select_halves_per_conjunct(self):
        cost = estimate_cost(
            parse("sigma[item = 'TV' and age = 3](Sold)"), SCOPE,
            rows={"Sold": 100},
        )
        select = cost.operators[-1]
        assert select.rows_out == 25  # 100 -> 50 -> 25
        assert select.cost == 100  # one vectorized pass over the input

    def test_join_with_shared_attribute_is_hash_join(self):
        cost = estimate_cost(
            parse("Sold join Sold2"),
            {"Sold": ("item", "clerk"), "Sold2": ("clerk", "age")},
            rows={"Sold": 10, "Sold2": 40},
        )
        join = cost.operators[-1]
        assert join.kernel == "columnar.hash_join"
        assert join.rows_out == 40
        assert join.cost == 10 + 40 + 40

    def test_join_without_shared_attribute_is_cartesian(self):
        cost = estimate_cost(
            parse("Sold join Dim"), SCOPE, rows={"Sold": 10, "Dim": 5}
        )
        join = cost.operators[-1]
        assert join.kernel == "columnar.cartesian"
        assert join.rows_out == 50

    def test_rename_is_free(self):
        cost = estimate_cost(
            parse("rho[item -> product](Sold)"), SCOPE, rows={"Sold": 9}
        )
        rename = cost.operators[-1]
        assert rename.cost == 0
        assert rename.rows_out == 9

    def test_union_and_difference(self):
        cost = estimate_cost(
            parse("pi[clerk](Sold) union pi[clerk](Sold)"), SCOPE,
            rows={"Sold": 8},
        )
        assert cost.operators[-1].rows_out == 16
        cost = estimate_cost(
            parse("pi[clerk](Sold) minus pi[clerk](Sold)"), SCOPE,
            rows={"Sold": 8},
        )
        assert cost.operators[-1].rows_out == 8

    def test_budget_gate(self):
        over = estimate_cost(parse("Sold"), SCOPE, rows={"Sold": 100}, budget=99)
        under = estimate_cost(parse("Sold"), SCOPE, rows={"Sold": 100}, budget=100)
        assert not over.within_budget
        assert under.within_budget
        assert over.to_dict()["within_budget"] is False

    def test_deterministic(self):
        expr = parse("pi[age](sigma[item = 'TV'](Sold))")
        assert estimate_cost(expr, SCOPE) == estimate_cost(expr, SCOPE)


# ----------------------------------------------------------------------
# Witness search, shrinking, verification
# ----------------------------------------------------------------------


def lossy_setup():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    definitions = {"Clerks": parse("pi[clerk](Sale)")}
    return catalog, definitions


class TestWitnessSearch:
    def test_lossy_identity_query_is_refuted(self):
        catalog, definitions = lossy_setup()
        outcome = search_query_counterexample(catalog, definitions, parse("Sale"))
        assert outcome.witness is not None
        assert outcome.states_examined > 0

    def test_witness_verifies_independently(self):
        catalog, definitions = lossy_setup()
        witness = search_query_counterexample(
            catalog, definitions, parse("Sale")
        ).witness
        assert verify_query_witness(catalog, definitions, parse("Sale"), witness) == []

    def test_witness_is_shrunk_to_a_local_minimum(self):
        # Re-shrinking the returned witness must be a no-op: no single row
        # can be removed while keeping the divergence.
        catalog, definitions = lossy_setup()
        query = parse("Sale")
        witness = search_query_counterexample(catalog, definitions, query).witness

        def still_witness(pair):
            candidate = witness._replace(left=pair.left, right=pair.right)
            return not verify_query_witness(catalog, definitions, query, candidate)

        again = shrink(
            Witness(witness.left, witness.right), ["Sale"], still_witness
        )
        assert again.max_rows_per_relation() == witness.max_rows_per_relation()
        assert witness.max_rows_per_relation() <= 2

    def test_tampered_witness_fails_verification(self):
        catalog, definitions = lossy_setup()
        query = parse("Sale")
        witness = search_query_counterexample(catalog, definitions, query).witness
        tampered = witness._replace(right=dict(witness.left))
        assert verify_query_witness(catalog, definitions, query, tampered)
        tampered = witness._replace(left_answer=witness.right_answer)
        assert verify_query_witness(catalog, definitions, query, tampered)

    def test_determined_view_query_finds_no_witness(self):
        # pi[clerk](Sale) IS the stored view: no two states with equal
        # images can disagree on it.
        catalog, definitions = lossy_setup()
        outcome = search_query_counterexample(
            catalog, definitions, parse("pi[clerk](Sale)")
        )
        assert outcome.witness is None
        assert outcome.exhausted


# ----------------------------------------------------------------------
# Verdicts and certificates
# ----------------------------------------------------------------------


class TestDecisionProcedure:
    def test_invertible_spec_proves_by_inversion(self, tmp_path):
        spec = with_queries(
            INVERTIBLE_SPEC,
            [{"query": "pi[age](sigma[item = 'TV'](Sale) join Emp)"}],
        )
        result = prove_queries_file(write(tmp_path, spec))
        (verdict,) = result.queries
        assert verdict.verdict == PROVED
        assert verdict.method == "inversion"
        assert verdict.ok
        assert "inversions" in verdict.certificate
        assert result.translation_digest is not None

    def test_lossy_view_instance_proves_by_fold(self, tmp_path):
        spec = with_queries(
            LOSSY_SPEC, [{"query": "pi[clerk](Sale)", "expect": "proved"}]
        )
        result = prove_queries_file(write(tmp_path, spec))
        (verdict,) = result.queries
        assert verdict.verdict == PROVED
        assert verdict.method == "view-fold"
        assert verdict.certificate["folds"] == {"Clerks": "pi[clerk](Sale)"}
        assert verdict.certificate["read_set"] == ["Clerks"]

    def test_lossy_identity_is_refuted_with_witness(self, tmp_path):
        spec = with_queries(LOSSY_SPEC, [{"query": "Sale", "expect": "refuted"}])
        result = prove_queries_file(write(tmp_path, spec))
        (verdict,) = result.queries
        assert verdict.verdict == REFUTED
        assert verdict.method == "search"
        assert verdict.witness is not None
        assert verdict.certificate is None

    def test_undeclared_relation_is_an_error(self, tmp_path):
        spec = with_queries(INVERTIBLE_SPEC, [{"query": "Sale join Ghost"}])
        result = prove_queries_file(write(tmp_path, spec))
        (verdict,) = result.queries
        assert verdict.verdict == UNKNOWN
        assert verdict.error is not None
        assert not verdict.ok

    def test_default_queries_are_per_relation_identities(self, tmp_path):
        result = prove_queries_file(write(tmp_path, INVERTIBLE_SPEC))
        assert sorted(v.name for v in result.queries) == ["Emp", "Sale"]
        assert all(v.verdict == PROVED for v in result.queries)

    def test_load_failure_becomes_error_result(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        result = prove_queries_file(str(path))
        assert result.error is not None
        assert not result.ok


class TestCertificateChecking:
    def proved_certificate(self, tmp_path):
        spec = with_queries(INVERTIBLE_SPEC, [{"query": "pi[age](Emp)"}])
        path = write(tmp_path, spec)
        result = prove_queries_file(path)
        (verdict,) = result.queries
        assert verdict.verdict == PROVED
        return load_target(path).catalog, verdict.certificate

    def test_fresh_certificate_validates(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        assert check_query_certificate(catalog, certificate) == []

    def test_source_reading_plan_is_rejected(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        tampered = dict(certificate, optimized="pi[age](Emp)")
        problems = check_query_certificate(catalog, tampered)
        assert any("source relation" in p for p in problems)

    def test_read_set_mismatch_is_rejected(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        tampered = dict(certificate, read_set=["Sold"])
        problems = check_query_certificate(catalog, tampered)
        assert any("read_set" in p for p in problems)

    def test_wrong_translation_fails_replay(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        # Swap the answer for a different (still warehouse-only) column.
        tampered = dict(certificate)
        tampered["translated"] = tampered["optimized"] = "pi[clerk](Sold)"
        tampered["read_set"] = ["Sold"]
        problems = check_query_certificate(catalog, tampered)
        assert any("replay" in p for p in problems)

    def test_unparseable_certificate_is_rejected(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        tampered = dict(certificate, optimized="pi[(((")
        problems = check_query_certificate(catalog, tampered)
        assert any("parse" in p for p in problems)

    def test_missing_warehouse_section_is_rejected(self, tmp_path):
        catalog, certificate = self.proved_certificate(tmp_path)
        tampered = {k: v for k, v in certificate.items() if k != "warehouse"}
        assert check_query_certificate(catalog, tampered)


# ----------------------------------------------------------------------
# Exit codes
# ----------------------------------------------------------------------


def result_with(verdict, expect, error=None):
    return QueryProofResult(
        "spec.json",
        "with-complement",
        (
            QueryVerdict(
                "q", "Sale", verdict, "search", "detail",
                expect=expect, error=error,
            ),
        ),
    )


class TestExitCodeSemantics:
    def test_expected_verdicts_pass(self):
        assert exit_code([result_with(PROVED, "proved")]) == 0
        assert exit_code([result_with(REFUTED, "refuted")]) == 0

    def test_mismatch_fails(self):
        assert exit_code([result_with(REFUTED, "proved")]) == 1
        assert exit_code([result_with(PROVED, "refuted")]) == 1

    def test_unknown_lenient_by_default_strict_otherwise(self):
        unknown = result_with(UNKNOWN, "proved")
        assert exit_code([unknown]) == 0
        assert exit_code([unknown], strict=True) == 1

    def test_unknown_fails_a_refuted_expectation(self):
        assert exit_code([result_with(UNKNOWN, "refuted")]) == 1

    def test_pinned_unknown_passes_even_strict(self):
        pinned = result_with(UNKNOWN, "unknown")
        assert exit_code([pinned]) == 0
        assert exit_code([pinned], strict=True) == 0

    def test_errors_exit_two(self):
        assert exit_code([result_with(UNKNOWN, "proved", error="boom")]) == 2
        broken = QueryProofResult("spec.json", "with-complement", (), error="io")
        assert exit_code([broken]) == 2


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCli:
    def test_proved_as_expected_exits_zero(self, tmp_path, capsys):
        assert main(["prove-query", write(tmp_path, INVERTIBLE_SPEC)]) == 0
        out = capsys.readouterr().out
        assert "PROVED" in out
        assert "OK" in out

    def test_expectation_mismatch_exits_one(self, tmp_path, capsys):
        spec = with_queries(
            INVERTIBLE_SPEC, [{"query": "pi[age](Emp)", "expect": "refuted"}]
        )
        assert main(["prove-query", write(tmp_path, spec)]) == 1

    def test_load_error_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["prove-query", str(path)]) == 2

    def test_json_document_shape(self, tmp_path, capsys):
        path = write(tmp_path, INVERTIBLE_SPEC)
        assert main(["prove-query", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "query-translation"
        assert document["ok"] is True
        assert document["summary"]["proved"] == 2
        (result,) = document["results"]
        assert "translation_digest" in result
        for entry in result["queries"]:
            assert entry["verdict"] == "PROVED"
            assert "digest" in entry

    def test_json_refuted_carries_witness(self, tmp_path, capsys):
        path = write(tmp_path, LOSSY_SPEC)
        assert main(["prove-query", path, "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        (result,) = document["results"]
        (entry,) = result["queries"]
        assert entry["verdict"] == "REFUTED"
        assert entry["witness"]["kind"] == "query"

    def test_certificates_flag_writes_one_document_per_file(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "certs"
        proved = write(tmp_path, INVERTIBLE_SPEC, "proved.json")
        lossy = write(tmp_path, LOSSY_SPEC, "lossy.json")
        assert (
            main(
                ["prove-query", proved, lossy, "--certificates", str(out_dir)]
            )
            == 0
        )
        proved_doc = json.loads((out_dir / "proved.query.json").read_text())
        lossy_doc = json.loads((out_dir / "lossy.query.json").read_text())
        assert proved_doc["ok"] is True
        assert lossy_doc["summary"]["refuted"] == 1

    def test_strict_passes_on_fully_decided_specs(self, tmp_path, capsys):
        proved = write(tmp_path, INVERTIBLE_SPEC, "proved.json")
        lossy = write(tmp_path, LOSSY_SPEC, "lossy.json")
        assert main(["prove-query", "--strict", proved, lossy]) == 0
