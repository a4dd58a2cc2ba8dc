"""``repro.compiler`` — certificate-driven refresh plan compilation.

The static-analysis stack (PR 4's prover, the dataflow read sets) proves
*facts* about a warehouse spec; this package spends those facts on
runtime speed. A PROVED, re-validated certificate is the trusted
specification (:mod:`repro.compiler.certificate`); maintenance plans are
chain-fused and classified per update shape
(:mod:`repro.compiler.fuse`); and the runtime
(:mod:`repro.compiler.runtime`) emits one specialized closure tree per
shape over the columnar kernels — no AST walking, no memo-key hashing,
no per-refresh fast-path decisions.

Enablement mirrors the storage engine flag: ``REPRO_COMPILE=1`` flips
the process default (read once at import, like
:mod:`repro.storage.engine`), and ``Warehouse(compile_plans=True)`` /
``compile_plans=False`` overrides it per warehouse. A spec the prover
cannot certify raises :class:`~repro.errors.CompileError` at compile
time; :class:`~repro.core.warehouse.Warehouse` catches that and falls
back to the interpreted path (counted by ``compiler.fallbacks``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional

from repro.core.complement import WarehouseSpec
from repro.compiler.certificate import (
    TrustedCertificate,
    certify,
)
from repro.compiler.fuse import (
    FusedPlan,
    RelationProgram,
    fused_inverses,
    fused_plan,
)
from repro.compiler.runtime import CompiledRefresh, RefreshCompiler
from repro.storage.engine import COMPILE_ENV, env_flag

#: The process-wide default (``REPRO_COMPILE``), read once at import (tests
#: monkeypatch this module attribute rather than the environment).
DEFAULT_COMPILE = env_flag(COMPILE_ENV)


def resolve_compile(flag: Optional[bool] = None) -> bool:
    """An explicit ``compile_plans`` argument, or the process default."""
    if flag is None:
        return DEFAULT_COMPILE
    return bool(flag)


def build_refresh_compiler(
    spec: WarehouseSpec, metrics=None
) -> RefreshCompiler:
    """Certify ``spec`` and build its :class:`RefreshCompiler`.

    With a :class:`~repro.obs.metrics.MetricsRegistry`, records the
    certification+build wall time (``compiler.build_seconds``) and bumps
    ``compiler.certificates``. Raises
    :class:`~repro.errors.CompileError` exactly when
    :func:`~repro.compiler.certificate.certify` does.
    """
    started = perf_counter()
    compiler = RefreshCompiler(spec)
    if metrics is not None:
        metrics.counter("compiler.certificates").inc()
        metrics.histogram("compiler.build_seconds").observe(
            perf_counter() - started
        )
    return compiler


__all__ = [
    "COMPILE_ENV",
    "DEFAULT_COMPILE",
    "CompiledRefresh",
    "FusedPlan",
    "RefreshCompiler",
    "RelationProgram",
    "TrustedCertificate",
    "build_refresh_compiler",
    "certify",
    "fused_inverses",
    "fused_plan",
    "resolve_compile",
]
