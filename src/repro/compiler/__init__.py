"""``repro.compiler`` — refresh plans: derivation, value reuse, caching.

Section 4's maintenance expressions are derived once per update shape and
side mask, simplified and rewritten so that recomputed old and new
values become references (:mod:`repro.compiler.fuse`), and cached per
spec (:mod:`repro.compiler.runtime`). The one interpreter runs them:
:func:`repro.core.maintenance.refresh_state` is the only refresh path,
for every engine and every kind of warehouse.

:mod:`repro.compiler.certificate` is the offline half:
:func:`certify` re-validates the prover's certificate for a spec and
hashes it, which ``python -m repro compile`` prints beside the plans. The
refresh path does not consult it — the plans specialize against nothing
but the spec itself.
"""

from __future__ import annotations

from repro.compiler.certificate import TrustedCertificate, certify
from repro.compiler.fuse import FusedPlan, RelationProgram, fused_plan
from repro.compiler.runtime import RefreshCompiler

__all__ = [
    "FusedPlan",
    "RefreshCompiler",
    "RelationProgram",
    "TrustedCertificate",
    "certify",
    "fused_plan",
]
