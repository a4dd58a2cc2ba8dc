"""Unit tests for the Prop. 2.1 search: the kernel observing the state itself."""

from __future__ import annotations

from repro import Catalog, parse
from repro.analysis.kernel import Witness, _without, attribute_domains, shrink
from repro.analysis.prover import search_counterexample, verify_witness
from repro.storage.relation import Relation


def lossy_catalog():
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    return catalog


def lossy_definitions():
    return {"Clerks": parse("pi[clerk](Sale)")}


class TestAttributeDomains:
    def test_mentioned_constants_are_included(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"))
        domains = attribute_domains(
            catalog, {"V": parse("sigma[age >= 40](Emp)")}, size=2
        )
        assert 40 in domains["age"]
        assert len(domains["age"]) >= 2
        assert len(domains["clerk"]) == 2

    def test_padding_avoids_duplicates(self):
        catalog = Catalog()
        catalog.relation("A", ("x",))
        domains = attribute_domains(
            catalog, {"V": parse("sigma[x = 0](A)")}, size=3
        )
        assert sorted(domains["x"], key=repr) == [0, 1, 2]


class TestSearch:
    def test_lossy_projection_refuted_with_one_row(self):
        outcome = search_counterexample(lossy_catalog(), lossy_definitions())
        assert outcome.witness is not None
        assert outcome.exhausted
        assert outcome.witness.max_rows_per_relation() == 1
        assert outcome.witness.differing_relations() == ("Sale",)
        assert verify_witness(
            lossy_catalog(), lossy_definitions(), outcome.witness
        ) == []

    def test_identity_view_finds_nothing(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        outcome = search_counterexample(catalog, {"Staff": parse("Emp")})
        assert outcome.witness is None
        assert outcome.exhausted

    def test_budget_marks_search_partial(self):
        outcome = search_counterexample(
            lossy_catalog(), lossy_definitions(), max_states=2
        )
        assert outcome.states_examined == 3
        assert not outcome.exhausted

    def test_keys_constrain_the_state_space(self):
        # With clerk as key, pi[clerk] is injective on <=1-row states.
        catalog = Catalog()
        catalog.relation("Emp", ("clerk",), key=("clerk",))
        outcome = search_counterexample(catalog, {"V": parse("pi[clerk](Emp)")})
        assert outcome.witness is None


class TestVerifyWitness:
    def test_identical_states_rejected(self):
        state = {"Sale": Relation(("item", "clerk"), [(0, 0)])}
        problems = verify_witness(
            lossy_catalog(), lossy_definitions(), Witness(state, dict(state))
        )
        assert any("identical" in p for p in problems)

    def test_differing_images_rejected(self):
        left = {"Sale": Relation(("item", "clerk"), [(0, 0)])}
        right = {"Sale": Relation(("item", "clerk"), [(0, 1)])}
        problems = verify_witness(
            lossy_catalog(), lossy_definitions(), Witness(left, right)
        )
        assert any("images differ" in p for p in problems)

    def test_constraint_violation_rejected(self):
        catalog = Catalog()
        catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
        left = {"Emp": Relation(("clerk", "age"), [(0, 0), (0, 1)])}
        right = {"Emp": Relation(("clerk", "age"), [(0, 0)])}
        problems = verify_witness(
            catalog, {"V": parse("pi[age](Emp)")}, Witness(left, right)
        )
        assert any("constraints" in p for p in problems)


class TestShrink:
    def test_shrink_reaches_local_minimum(self):
        left = {
            "Sale": Relation(
                ("item", "clerk"), [(0, 0), (1, 0), (0, 1), (1, 1)]
            )
        }
        right = {
            "Sale": Relation(("item", "clerk"), [(1, 0), (0, 1), (1, 1)])
        }
        catalog, definitions = lossy_catalog(), lossy_definitions()
        assert verify_witness(catalog, definitions, Witness(left, right)) == []

        def still_witness(pair):
            return not verify_witness(catalog, definitions, pair)

        small = shrink(Witness(left, right), ["Sale"], still_witness)
        assert verify_witness(catalog, definitions, small) == []
        # Strictly smaller, and locally minimal: removing any remaining
        # row from both sides breaks the witness property.
        assert small.max_rows_per_relation() < 4
        for row in small.left["Sale"].rows | small.right["Sale"].rows:
            cand_left = {"Sale": _without(small.left["Sale"], row)}
            cand_right = {"Sale": _without(small.right["Sale"], row)}
            assert not still_witness(Witness(cand_left, cand_right))

    def test_witness_to_dict_is_deterministic(self):
        outcome = search_counterexample(lossy_catalog(), lossy_definitions())
        first = outcome.witness.to_dict()
        second = search_counterexample(
            lossy_catalog(), lossy_definitions()
        ).witness.to_dict()
        assert first == second
        assert first["differs_in"] == ["Sale"]
        assert "describe" not in first

    def test_describe_marks_differing_relation(self):
        outcome = search_counterexample(lossy_catalog(), lossy_definitions())
        assert "<- differs" in outcome.witness.describe()
