"""Unit tests for :mod:`repro.analysis.concurrency` — the sharding prover.

Covers the four analysis layers independently of the CLI driver: assembly
classification (including co-partitioning admission and refutable
failures), per-update-shape footprints, batch-commutativity decisions
with replayable interleaving witnesses, and the bounded replay search +
certificate self-validation loop.
"""

from __future__ import annotations

import pytest

from repro import Catalog, View, WarehouseError, parse
from repro.analysis.concurrency import (
    ASSEMBLE_INTERSECT,
    ASSEMBLE_REPLICATED,
    ASSEMBLE_UNION,
    UnshardableError,
    analyze_expression,
    build_sharding_certificate,
    check_sharding_certificate,
    classify_assembly,
    decide_source_commutativity,
    decide_update_commutativity,
    default_ownership,
    prove_sharding_target,
    replay_interleaving,
    search_sharding_counterexample,
    shape_footprints,
    verify_sharding_witness,
    write_footprint,
    ShardingProofResult,
)
from repro.analysis.digest import canonical_digest
from repro.analysis.kernel import PROVED, REFUTED, UNKNOWN, UNSHARDED, exit_code
from repro.analysis.specfile import LintTarget, RoutingSpec, ShardingOptions
from repro.core.complement import specify
from repro.core.routing import ShardRouting


def sale_emp_catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    return catalog


def two_fact_catalog() -> Catalog:
    catalog = Catalog()
    catalog.relation("Orders", ("okey", "item"), key=("okey",))
    catalog.relation("Shipments", ("okey", "carrier"), key=("okey",))
    return catalog


def scope_of(catalog: Catalog):
    return {s.name: tuple(s.attributes) for s in catalog.schemas()}


def hash2(relation: str, attribute: str) -> ShardRouting:
    return ShardRouting(relation, attribute, shards=2)


class TestAnalyzeExpression:
    def test_unrouted_expression_is_replicated(self):
        catalog = sale_emp_catalog()
        analysis = analyze_expression(
            parse("Emp"), {"Sale": hash2("Sale", "item")}, scope_of(catalog), "V"
        )
        assert analysis.assemble == ASSEMBLE_REPLICATED
        assert analysis.contributors == frozenset()

    def test_routed_join_replicated_is_union(self):
        catalog = sale_emp_catalog()
        analysis = analyze_expression(
            parse("Sale join Emp"),
            {"Sale": hash2("Sale", "item")},
            scope_of(catalog),
            "V",
        )
        assert analysis.assemble == ASSEMBLE_UNION
        assert analysis.contributors == frozenset({"Sale"})
        assert "item" in analysis.rooted

    def test_co_partitioned_two_routed_join_is_union(self):
        catalog = two_fact_catalog()
        routings = {
            "Orders": hash2("Orders", "okey"),
            "Shipments": hash2("Shipments", "okey"),
        }
        analysis = analyze_expression(
            parse("Orders join Shipments"), routings, scope_of(catalog), "V"
        )
        assert analysis.assemble == ASSEMBLE_UNION
        assert analysis.contributors == frozenset({"Orders", "Shipments"})

    def test_two_routed_join_off_routing_attribute_is_refutable(self):
        catalog = Catalog()
        catalog.relation("A", ("x", "y"))
        catalog.relation("B", ("y", "z"))
        routings = {"A": hash2("A", "x"), "B": hash2("B", "z")}
        with pytest.raises(UnshardableError) as excinfo:
            analyze_expression(
                parse("A join B"), routings, scope_of(catalog), "V"
            )
        assert excinfo.value.refutable
        assert "routing attribute" in str(excinfo.value)

    def test_mispartitioned_join_is_refutable(self):
        catalog = two_fact_catalog()
        routings = {
            "Orders": ShardRouting("Orders", "okey", boundaries=[4]),
            "Shipments": hash2("Shipments", "okey"),
        }
        with pytest.raises(UnshardableError) as excinfo:
            analyze_expression(
                parse("Orders join Shipments"), routings, scope_of(catalog), "V"
            )
        assert excinfo.value.refutable
        assert "not co-partitioned" in str(excinfo.value)

    def test_projecting_away_routing_attribute_loses_rootedness(self):
        # Unioning a non-rooted slice image with a rooted one is mere
        # absence of proof (UNKNOWN), not a provable loss — unlike the
        # refutable mis-partitioned join.
        catalog = sale_emp_catalog()
        with pytest.raises(UnshardableError) as excinfo:
            analyze_expression(
                parse("pi[clerk](Sale) union pi[clerk](Sale)"),
                {"Sale": hash2("Sale", "item")},
                scope_of(catalog),
                "V",
            )
        assert not excinfo.value.refutable
        assert "retain the routing attribute" in str(excinfo.value)


class TestClassifyAssembly:
    def test_figure1_layout(self):
        catalog = sale_emp_catalog()
        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        report = classify_assembly(
            spec.definitions_over_sources(),
            spec.source_scope(),
            {"Sale": hash2("Sale", "item")},
        )
        assert report.assembly["Sold"] == ASSEMBLE_UNION
        assert ASSEMBLE_INTERSECT in report.assembly.values()
        assert report.co_partitioned == ()

    def test_co_partitioned_group_is_recorded(self):
        catalog = two_fact_catalog()
        spec = specify(
            catalog, [View("Fulfilled", parse("Orders join Shipments"))]
        )
        report = classify_assembly(
            spec.definitions_over_sources(),
            spec.source_scope(),
            {
                "Orders": hash2("Orders", "okey"),
                "Shipments": hash2("Shipments", "okey"),
            },
        )
        assert ("Orders", "Shipments") in report.co_partitioned


class TestFootprints:
    def test_shapes_cover_every_relation_and_kind(self):
        catalog = sale_emp_catalog()
        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        footprints = shape_footprints(spec, {"Sale": hash2("Sale", "item")})
        labels = {fp.shape.label() for fp in footprints}
        assert {"Sale:insert", "Sale:delete", "Emp:insert", "Emp:delete"} == labels
        assert len(footprints) == 4

    def test_routed_flag_tracks_routing(self):
        catalog = sale_emp_catalog()
        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        footprints = shape_footprints(spec, {"Sale": hash2("Sale", "item")})
        by_relation = {fp.shape.relation: fp.routed for fp in footprints}
        assert by_relation["Sale"] is True
        assert by_relation["Emp"] is False

    def test_write_footprint_covers_actual_refresh_writes(self):
        catalog = sale_emp_catalog()
        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        writes = write_footprint(spec, ["Sale"])
        assert "Sold" in writes
        assert write_footprint(spec, []) == frozenset()


class TestCommutativity:
    def test_disjoint_relations_commute(self):
        witness = decide_update_commutativity(
            {"A": ((("x",),), ())},
            {"B": ((("y",),), ())},
            {"A": ("a",), "B": ("b",)},
        )
        assert witness is None

    def test_same_insert_commutes(self):
        row = (("TV", "Mary"),)
        witness = decide_update_commutativity(
            {"Sale": (row, ())}, {"Sale": (row, ())}, {"Sale": ("item", "clerk")}
        )
        assert witness is None

    def test_insert_vs_delete_refuted_with_divergent_replay(self):
        row = ("TV", "Mary")
        witness = decide_update_commutativity(
            {"Sale": (((row),), ())},
            {"Sale": ((), ((row),))},
            {"Sale": ("item", "clerk")},
        )
        assert witness is not None
        one, other = replay_interleaving(witness)
        assert one != other
        assert one == witness.first_then_second
        assert other == witness.second_then_first

    def test_deleting_different_rows_commutes(self):
        witness = decide_update_commutativity(
            {"Sale": ((), (("TV", "Mary"),))},
            {"Sale": ((), (("Car", "Ann"),))},
            {"Sale": ("item", "clerk")},
        )
        assert witness is None

    def test_witness_start_state_is_minimal(self):
        row = ("TV", "Mary")
        witness = decide_update_commutativity(
            {"Sale": ((row,), ())},
            {"Sale": ((), (row,))},
            {"Sale": ("item", "clerk")},
        )
        assert witness is not None
        assert len(witness.start) <= 1

    def test_default_ownership_always_commutes(self):
        catalog = sale_emp_catalog()
        results = decide_source_commutativity(catalog, default_ownership(catalog))
        assert results
        assert all(result.commutes for result in results)

    def test_shared_ownership_is_refuted(self):
        catalog = sale_emp_catalog()
        results = decide_source_commutativity(
            catalog, {"feed_a": ("Sale",), "feed_b": ("Sale", "Emp")}
        )
        (result,) = results
        assert not result.commutes
        assert result.shared == ("Sale",)
        one, other = replay_interleaving(result.witness)
        assert one != other


class TestCounterexampleSearch:
    def test_mispartitioned_layout_yields_witness(self):
        catalog = two_fact_catalog()
        spec = specify(
            catalog, [View("Fulfilled", parse("Orders join Shipments"))]
        )
        routings = {
            "Orders": ShardRouting("Orders", "okey", boundaries=[4]),
            "Shipments": hash2("Shipments", "okey"),
        }
        witness = search_sharding_counterexample(
            spec.definitions_over_sources(), spec.source_scope(), routings
        )
        assert witness is not None
        problems = verify_sharding_witness(
            spec.definitions_over_sources(),
            spec.source_scope(),
            routings,
            witness.to_dict(),
        )
        assert problems == []

    def test_sound_layout_yields_no_witness(self):
        catalog = two_fact_catalog()
        spec = specify(
            catalog, [View("Fulfilled", parse("Orders join Shipments"))]
        )
        routings = {
            "Orders": hash2("Orders", "okey"),
            "Shipments": hash2("Shipments", "okey"),
        }
        assert (
            search_sharding_counterexample(
                spec.definitions_over_sources(), spec.source_scope(), routings
            )
            is None
        )

    def test_tampered_witness_is_rejected(self):
        catalog = two_fact_catalog()
        spec = specify(
            catalog, [View("Fulfilled", parse("Orders join Shipments"))]
        )
        routings = {
            "Orders": ShardRouting("Orders", "okey", boundaries=[4]),
            "Shipments": hash2("Shipments", "okey"),
        }
        witness = search_sharding_counterexample(
            spec.definitions_over_sources(), spec.source_scope(), routings
        ).to_dict()
        witness["state"] = {name: [] for name in witness["state"]}
        problems = verify_sharding_witness(
            spec.definitions_over_sources(),
            spec.source_scope(),
            routings,
            witness,
        )
        assert problems and "does not diverge" in problems[0]


class TestCertificate:
    def build(self):
        catalog = sale_emp_catalog()
        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        routings = {"Sale": hash2("Sale", "item")}
        report = classify_assembly(
            spec.definitions_over_sources(), spec.source_scope(), routings
        )
        ownership = default_ownership(catalog)
        certificate = build_sharding_certificate(
            spec,
            routings,
            report,
            shape_footprints(spec, routings),
            decide_source_commutativity(catalog, ownership),
            ownership,
        )
        return catalog, certificate

    def test_fresh_certificate_validates(self):
        catalog, certificate = self.build()
        assert check_sharding_certificate(catalog, certificate) == []

    def test_digest_is_stable_and_tamper_sensitive(self):
        _, certificate = self.build()
        digest = canonical_digest(certificate)
        assert digest == canonical_digest(dict(certificate))
        tampered = dict(certificate)
        tampered["shards"] = 3
        assert canonical_digest(tampered) != digest

    def test_tampered_assembly_mode_is_caught(self):
        catalog, certificate = self.build()
        certificate["assembly"]["Sold"] = ASSEMBLE_INTERSECT
        problems = check_sharding_certificate(catalog, certificate)
        assert any("re-derived" in problem for problem in problems)

    def test_tampered_warehouse_mapping_is_caught(self):
        catalog, certificate = self.build()
        # C_Emp is recorded intersect-assembled; rewriting its definition
        # to the bare routed relation re-derives union.
        certificate["warehouse"]["C_Emp"] = "Sale"
        assert check_sharding_certificate(catalog, certificate) != []

    def test_commute_claim_with_shared_relation_is_caught(self):
        catalog, certificate = self.build()
        certificate["commutativity"]["pairs"] = [
            {"pair": ["a", "b"], "shared": ["Sale"], "verdict": "commute"}
        ]
        problems = check_sharding_certificate(catalog, certificate)
        assert any("claims commutativity" in problem for problem in problems)

    def test_plan_cache_key_matches_compiler_digest(self):
        catalog, certificate = self.build()
        from repro.compiler.certificate import certify

        spec = specify(catalog, [View("Sold", parse("Sale join Emp"))])
        assert certificate["plan_cache_key"] == certify(spec).digest


def make_target(catalog, views, sharding):
    return LintTarget("spec.json", catalog, views, {}, sharding=sharding)


class TestProveShardingTarget:
    def test_no_sharding_section_is_unsharded(self):
        catalog = sale_emp_catalog()
        result = prove_sharding_target(
            make_target(catalog, [View("Sold", parse("Sale join Emp"))], None)
        )
        assert result.verdict == UNSHARDED
        assert result.ok

    def test_proved_layout_carries_certificate(self):
        catalog = sale_emp_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Sold", parse("Sale join Emp"))],
                ShardingOptions(
                    routings=(RoutingSpec("Sale", "item", shards=2),)
                ),
            )
        )
        assert result.verdict == PROVED
        assert result.certificate is not None
        assert "digest" in result.document()

    def test_invalid_routing_is_unknown_with_error(self):
        catalog = sale_emp_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Sold", parse("Sale join Emp"))],
                ShardingOptions(
                    routings=(RoutingSpec("Nope", "item", shards=2),)
                ),
            )
        )
        assert result.verdict == UNKNOWN
        assert "not in catalog" in result.error

    def test_unknown_owned_relation_is_unknown_with_error(self):
        catalog = sale_emp_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Sold", parse("Sale join Emp"))],
                ShardingOptions(
                    routings=(RoutingSpec("Sale", "item", shards=2),),
                    sources={"feed": ("Ghost",)},
                ),
            )
        )
        assert result.verdict == UNKNOWN
        assert "Ghost" in result.error

    def test_shared_sources_refuted_with_interleaving_witness(self):
        catalog = sale_emp_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Sold", parse("Sale join Emp"))],
                ShardingOptions(
                    routings=(RoutingSpec("Sale", "item", shards=2),),
                    expect="refuted",
                    sources={"a": ("Sale",), "b": ("Sale",)},
                ),
            )
        )
        assert result.verdict == REFUTED
        assert result.ok
        assert result.witness["kind"] == "interleaving"

    def test_mispartitioned_layout_refuted_with_sharding_witness(self):
        catalog = two_fact_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Fulfilled", parse("Orders join Shipments"))],
                ShardingOptions(
                    routings=(
                        RoutingSpec("Orders", "okey", boundaries=(4,)),
                        RoutingSpec("Shipments", "okey", shards=2),
                    ),
                    expect="refuted",
                ),
            )
        )
        assert result.verdict == REFUTED
        assert result.ok
        assert result.witness["kind"] == "sharding"
        assert "confirmed by replay" in result.detail

    def test_inconsistent_shard_counts_are_unknown(self):
        catalog = two_fact_catalog()
        result = prove_sharding_target(
            make_target(
                catalog,
                [View("Fulfilled", parse("Orders join Shipments"))],
                ShardingOptions(
                    routings=(
                        RoutingSpec("Orders", "okey", shards=2),
                        RoutingSpec("Shipments", "okey", shards=3),
                    ),
                ),
            )
        )
        assert result.verdict == UNKNOWN
        assert "inconsistent shard counts" in result.error


class TestExitCodes:
    def r(self, verdict, expect="proved", error=None):
        return ShardingProofResult(
            "spec.json", verdict, "d", expect=expect, error=error
        )

    def test_all_expectations_met(self):
        results = [
            self.r(PROVED),
            self.r(REFUTED, expect="refuted"),
            self.r(UNSHARDED),
        ]
        assert exit_code(results) == 0
        assert exit_code(results, strict=True) == 0

    def test_mismatch_fails(self):
        assert exit_code([self.r(REFUTED)]) == 1
        assert exit_code([self.r(PROVED, expect="refuted")]) == 1

    def test_unknown_passes_only_when_lenient(self):
        assert exit_code([self.r(UNKNOWN)]) == 0
        assert exit_code([self.r(UNKNOWN)], strict=True) == 1
        assert exit_code([self.r(UNKNOWN, expect="refuted")]) == 1

    def test_load_error_is_exit_2(self):
        assert exit_code([self.r(UNKNOWN, error="boom")]) == 2
