"""The spec certificate: the prover's verdict, re-validated and hashed.

:func:`repro.analysis.prover.build_certificate` states, per spec, the
Equation (4) inversion expression for every base relation and the
Theorem 4.1 dataflow read sets, and :func:`check_certificate` re-validates
that document independently (parse-back plus numeric replay).
:func:`certify` runs both and refuses — :class:`~repro.errors.CompileError`
— a spec whose certificate does not survive the check or whose read sets
are not all empty (the prover's ``update_independent`` verdict).

This is an offline check: ``python -m repro compile`` prints the verdict
beside the spec's refresh plans, and sharding certificates record the
digest as ``plan_cache_key``. The refresh path itself
(:func:`repro.core.maintenance.refresh_state`) does not consult it.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.errors import CompileError, ReproError
from repro.analysis.dataflow import DataflowReport, spec_read_sets
from repro.analysis.digest import canonical_digest
from repro.analysis.prover import build_certificate, check_certificate
from repro.core.complement import WarehouseSpec

#: The certificate mode certified here (the prover's complement-based
#: proof; the self-maintainability mode states no inverses).
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
