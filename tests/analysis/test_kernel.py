"""Tests that pin the certificate kernel (:mod:`repro.analysis.kernel`).

The three provers ask one question — is this function of the source state
determined by the stored image? — through one search, one shrinker, one
validation scaffold and one exit code. These tests state that directly,
instead of three prover test files agreeing by convention.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro import Catalog, parse
from repro.analysis import concurrency, prover, query as query_prover
from repro.analysis.concurrency import check_sharding_certificate, prove_sharding_target
from repro.analysis.kernel import (
    PROVED,
    QUERY_KIND,
    REFUTED,
    SHARDING_KIND,
    UNKNOWN,
    UNSHARDED,
    FileResult,
    Verdict,
    Witness,
    _without,
    exit_code,
    shrink,
    witness_problems,
)
from repro.analysis.prover import (
    check_certificate,
    observe_state,
    prove_target,
    search_counterexample,
)
from repro.analysis.query import (
    check_query_certificate,
    prove_queries_target,
    observe_answer,
    search_query_counterexample,
)
from repro.analysis.specfile import load_target
from repro.storage.relation import Relation

REPO = Path(__file__).parents[2]
SPEC_DIR = REPO / "examples" / "specs"
GOLDEN_DIR = Path(__file__).parent / "golden" / "certificates"
STEMS = sorted(path.stem for path in SPEC_DIR.glob("*.json"))


# ----------------------------------------------------------------------
# Proposition 2.1 as an executable statement
# ----------------------------------------------------------------------


@pytest.mark.parametrize("stem", STEMS)
def test_state_is_determined_iff_every_identity_query_is(stem):
    """``W`` is injective iff the image determines every source relation.

    Observing the state itself finds a witness exactly when observing
    ``R`` does for some source relation ``R`` — and the relations the
    state witness differs in are among the refuted identities.
    """
    target = load_target(str(SPEC_DIR / f"{stem}.json"))
    definitions = {view.name: view.definition for view in target.views}
    bounds = {
        "max_model_size": target.prover.max_model_size,
        "domain_size": target.prover.domain_size,
    }
    by_state = search_counterexample(target.catalog, definitions, **bounds)
    refuted = {
        relation
        for relation in target.catalog.relation_names()
        if search_query_counterexample(
            target.catalog, definitions, parse(relation), **bounds
        ).witness
        is not None
    }
    assert (by_state.witness is not None) == bool(refuted)
    if by_state.witness is not None:
        assert set(by_state.witness.differing_relations()) <= refuted


# ----------------------------------------------------------------------
# The shrinker, over both observations
# ----------------------------------------------------------------------


def lossy():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    return catalog, {"Clerks": parse("pi[clerk](Sale)")}


@pytest.mark.parametrize("observation", ["state", "answer"])
def test_shrunk_witness_verifies_and_is_locally_minimal(observation):
    catalog, definitions = lossy()
    observe = (
        observe_state(catalog)
        if observation == "state"
        else observe_answer(parse("pi[item](Sale)"))
    )

    def still_witness(pair):
        return not witness_problems(catalog, definitions, observe, pair)

    attrs = ("item", "clerk")
    big = Witness(
        {"Sale": Relation(attrs, [(0, 0), (1, 0), (0, 1), (1, 1)])},
        {"Sale": Relation(attrs, [(1, 0), (1, 1)])},
    )
    assert still_witness(big)
    small = shrink(big, catalog.relation_names(), still_witness)
    assert still_witness(small)
    assert small.max_rows_per_relation() < big.max_rows_per_relation()
    for row in small.left["Sale"].rows | small.right["Sale"].rows:
        smaller = Witness(
            {"Sale": _without(small.left["Sale"], row)},
            {"Sale": _without(small.right["Sale"], row)},
        )
        assert not still_witness(smaller)


# ----------------------------------------------------------------------
# One exit code for the three kinds
# ----------------------------------------------------------------------


def spec_level(verdict, expect, error=None):
    facts = {"mode": "with-complement", "method": "thm22"}
    item = Verdict("x.json", verdict, "d", expect, facts, error=error)
    return FileResult("x.json", verdicts=(item,))


def sharding(verdict, expect, error=None):
    item = Verdict("x.json", verdict, "d", expect, error=error)
    return FileResult("x.json", {"kind": SHARDING_KIND}, (item,))


def query(verdict, expect, error=None):
    facts = {"name": "q", "query": "R", "method": "search"}
    item = Verdict("q", verdict, "d", expect, facts, error=error)
    return FileResult("x.json", {"kind": QUERY_KIND}, (item,))


# (verdict, expect) -> (lenient exit code, strict exit code)
TRUTH_TABLE = {
    (PROVED, "proved"): (0, 0),
    (REFUTED, "refuted"): (0, 0),
    (PROVED, "refuted"): (1, 1),
    (REFUTED, "proved"): (1, 1),
    (UNKNOWN, "proved"): (0, 1),
    (UNKNOWN, "refuted"): (1, 1),
}


@pytest.mark.parametrize("make", [spec_level, sharding, query])
@pytest.mark.parametrize("case", sorted(TRUTH_TABLE))
def test_exit_code_truth_table(make, case):
    lenient, strict = TRUTH_TABLE[case]
    assert exit_code([make(*case)]) == lenient
    assert exit_code([make(*case)], strict=True) == strict
    # An error dominates whatever the verdict says.
    assert exit_code([make(*case, error="boom")]) == 2
    assert exit_code([make(*case), make(PROVED, "proved", error="boom")]) == 2


def test_exit_code_nothing_to_decide_and_pinned_incompleteness():
    # UNSHARDED: nothing to decide, whatever was expected.
    for expect in ("proved", "refuted"):
        assert exit_code([sharding(UNSHARDED, expect)], strict=True) == 0
    # A query may pin an honest UNKNOWN; anything else then fails.
    assert exit_code([query(UNKNOWN, "unknown")], strict=True) == 0
    assert exit_code([query(PROVED, "unknown")]) == 1
    # A file-level load error is an error too.
    broken = FileResult("x.json", {"kind": QUERY_KIND}, error="io")
    assert exit_code([broken]) == 2
    assert exit_code([]) == 0


# ----------------------------------------------------------------------
# Never PROVED on a certificate that fails its own check
# ----------------------------------------------------------------------

#: Each prover with the module-level validator its PROVED verdicts pass.
SELF_CHECKS = {
    "prove": (prover, "check_certificate", prove_target),
    "prove-sharding": (
        concurrency, "check_sharding_certificate", prove_sharding_target
    ),
    "prove-query": (
        query_prover, "check_query_certificate", prove_queries_target
    ),
}


@pytest.mark.parametrize("command", sorted(SELF_CHECKS))
def test_a_certificate_failing_its_own_check_is_unknown(command, monkeypatch):
    module, validator, decide = SELF_CHECKS[command]
    monkeypatch.setattr(module, validator, lambda catalog, certificate: ["planted"])
    result = decide(load_target(str(SPEC_DIR / "figure1.json")))
    assert result.verdicts
    for item in result.verdicts:
        assert (item.verdict, item.error) == (UNKNOWN, "planted")
        assert item.certificate is None
        assert "failed self-validation" in item.detail


# ----------------------------------------------------------------------
# Validators never raise: a one-field mutation sweep over the goldens
# ----------------------------------------------------------------------

CHECKS = {
    "cert": check_certificate,
    "sharding": check_sharding_certificate,
    "query": check_query_certificate,
}


def golden_certificates(path):
    """The certificates one golden document carries (a query file: several)."""
    document = json.loads(path.read_text())
    holders = document.get("queries", [document])
    return [h["certificate"] for h in holders if "certificate" in h]


def key_paths(node, depth, prefix=()):
    """Every key/index path into ``node``, up to ``depth`` levels deep."""
    if depth == 0:
        return
    if isinstance(node, dict):
        members = node.items()
    elif isinstance(node, list):
        members = enumerate(node)
    else:
        return
    for key, value in members:
        yield prefix + (key,)
        yield from key_paths(value, depth - 1, prefix + (key,))


DELETE = object()


def mutated(certificate, path, value):
    clone = copy.deepcopy(certificate)
    node = clone
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return clone


@pytest.mark.parametrize(
    "golden", sorted(GOLDEN_DIR.glob("*.json")), ids=lambda path: path.name
)
def test_validators_return_problem_lists_for_any_malformed_field(golden):
    stem, kind, _ = golden.name.split(".")
    check = CHECKS[kind]
    catalog = load_target(str(SPEC_DIR / f"{stem}.json")).catalog
    for certificate in golden_certificates(golden):
        assert check(catalog, certificate) == []
        for path in key_paths(certificate, 3):
            for value in (DELETE, 5, "x", None, []):
                problems = check(catalog, mutated(certificate, path, value))
                assert isinstance(problems, list), (path, value)


def test_named_malformations_become_problem_strings():
    document = json.loads((GOLDEN_DIR / "figure1.query.json").read_text())
    certificate = document["queries"][0]["certificate"]
    catalog = load_target(str(SPEC_DIR / "figure1.json")).catalog
    del certificate["optimized"]
    assert check_query_certificate(catalog, certificate) == [
        "certificate lacks 'optimized'"
    ]
    sharded = json.loads((GOLDEN_DIR / "figure1.sharding.json").read_text())
    for shards in (0, "2", None):
        problems = check_sharding_certificate(
            catalog, dict(sharded["certificate"], shards=shards)
        )
        assert any("'shards'" in problem for problem in problems)
