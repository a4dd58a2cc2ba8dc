"""The compiler's trust anchor: a validated, hashed prover certificate.

The plan compiler never re-derives the paper's theorems. It *consumes*
them: :func:`repro.analysis.prover.build_certificate` states, per spec,
the Equation (4) inversion expression for every base relation and the
Theorem 4.1 dataflow read sets, and :func:`check_certificate` re-validates
that document independently (parse-back plus numeric replay). Only a spec
whose certificate survives that check — and whose read sets are all empty,
i.e. the prover's ``update_independent`` verdict — is eligible for
compilation; anything else raises :class:`~repro.errors.CompileError` and
the warehouse stays on the interpreted path.

The certificate's canonical-JSON SHA-256 digest keys the compiled plan
cache: a prover re-verdict that changes *any* fact the closures were
specialized against changes the digest, and the cache is evicted
(:meth:`repro.core.warehouse.Warehouse.recertify`).
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import CompileError, ReproError
from repro.analysis.dataflow import DataflowReport, spec_read_sets
from repro.analysis.digest import canonical_digest
from repro.analysis.prover import build_certificate, check_certificate
from repro.core.complement import WarehouseSpec

#: The certificate mode the compiler trusts (the prover's complement-based
#: proof; the self-maintainability mode has no inverses to compile).
TRUSTED_MODE = "with-complement"


class TrustedCertificate:
    """A certificate that passed re-validation, with its cache digest."""

    __slots__ = ("document", "digest", "dataflow")

    def __init__(
        self,
        document: Mapping[str, object],
        digest: str,
        dataflow: DataflowReport,
    ) -> None:
        self.document = document
        self.digest = digest
        self.dataflow = dataflow

    def __repr__(self) -> str:
        return f"TrustedCertificate(digest={self.digest[:12]}...)"


def certify(
    spec: WarehouseSpec, dataflow: Optional[DataflowReport] = None
) -> TrustedCertificate:
    """Build, re-validate, and hash the certificate for ``spec``.

    Raises
    ------
    CompileError
        If the certificate fails its independent re-validation, if any
        update shape's static read set is non-empty (the spec is not
        update-independent, so there is no source-free refresh to
        compile), or if the analysis stack cannot handle the spec at all
        (e.g. Section 5 star specs, whose union views leave the prover's
        PSJ fragment).
    """
    try:
        if dataflow is None:
            dataflow = spec_read_sets(spec)
        if not dataflow.update_independent:
            dependent = [
                shape.label() for shape, reads in dataflow.read_sets if reads
            ]
            raise CompileError(
                "refusing to compile: spec is not update-independent "
                f"(shapes reading sources: {dependent})"
            )
        document = build_certificate(spec, dataflow, TRUSTED_MODE)
        problems = check_certificate(spec.catalog, document)
    except CompileError:
        raise
    except ReproError as error:
        raise CompileError(
            f"refusing to compile: certificate construction failed ({error})"
        ) from error
    if problems:
        listing = "; ".join(problems)
        raise CompileError(
            f"refusing to compile: certificate failed re-validation ({listing})"
        )
    return TrustedCertificate(document, canonical_digest(document), dataflow)
