"""The compiler's trust anchor: certification, digests, and refusals."""

from __future__ import annotations

import pytest

from repro import Catalog, View, parse, specify
from repro.analysis.digest import canonical_digest
from repro.compiler import certify
from repro.compiler.certificate import TRUSTED_MODE
from repro.errors import CompileError


def _two_relation_spec(method="prop22"):
    catalog = Catalog()
    catalog.relation("R", ("a", "b"))
    catalog.relation("S", ("b", "c"))
    views = [View("V1", parse("pi[a, b](R)")), View("V2", parse("R join S"))]
    return specify(catalog, views, method=method)


class TestDigest:
    def test_digest_is_deterministic(self):
        spec = _two_relation_spec()
        assert certify(spec).digest == certify(spec).digest

    def test_digest_ignores_key_order(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert canonical_digest(a) == canonical_digest(b)

    def test_digest_changes_with_any_fact(self):
        document = {"mode": TRUSTED_MODE, "inverses": {"R": "pi[a, b](V1)"}}
        tampered = {"mode": TRUSTED_MODE, "inverses": {"R": "pi[a](V1)"}}
        assert canonical_digest(document) != canonical_digest(tampered)

    def test_different_specs_have_different_digests(self):
        sale = Catalog()
        sale.relation("Sale", ("item", "clerk"))
        sale.relation("Emp", ("clerk", "age"), key=("clerk",))
        figure1 = specify(sale, [View("Sold", parse("Sale join Emp"))], method="prop22")
        assert certify(_two_relation_spec()).digest != certify(figure1).digest

    def test_method_changes_the_digest(self):
        # prop22 and trivial derive different complements for the same
        # catalog+views, so their certificates must not collide.
        assert (
            certify(_two_relation_spec("prop22")).digest
            != certify(_two_relation_spec("trivial")).digest
        )


class TestCertify:
    def test_certificate_carries_dataflow(self):
        certificate = certify(_two_relation_spec())
        assert certificate.dataflow.update_independent
        assert certificate.document
        assert len(certificate.digest) == 64  # hex SHA-256

    def test_repr_shows_digest_prefix(self):
        certificate = certify(_two_relation_spec())
        assert certificate.digest[:12] in repr(certificate)

    def test_star_spec_is_refused(self):
        """Section 5 union views leave the PSJ fragment the prover handles."""
        from repro import parse_condition
        from repro.core.star import FactTable, star_specify

        catalog = Catalog()
        catalog.relation("Customer", ("custkey", "segment"), key=("custkey",))
        catalog.relation("OrdersN", ("loc", "okey", "custkey"), key=("okey",))
        catalog.relation("OrdersS", ("loc", "okey", "custkey"), key=("okey",))
        catalog.add_check("OrdersN", parse_condition("loc = 'N'"))
        catalog.add_check("OrdersS", parse_condition("loc = 'S'"))
        fact = FactTable(
            "Sales",
            "loc",
            {"N": parse("OrdersN"), "S": parse("OrdersS")},
        )
        spec = star_specify(catalog, [fact], [View("Dim", parse("Customer"))])
        with pytest.raises(CompileError):
            certify(spec)

    def test_refusal_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(CompileError, ReproError)
