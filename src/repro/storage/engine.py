"""Process configuration read from the environment, in one leaf module.

It imports only the standard library and :mod:`repro.errors`, so the
evaluator, the storage layer and the analysis package can all resolve
their settings here without an import cycle. The two variables the
program reads:

* ``REPRO_ENGINE`` — the default physical engine (:func:`resolve_engine`):
  ``"columnar"``, dictionary-coded batch kernels
  (:mod:`repro.storage.columnar`; the default), or ``"tuple"``, the
  frozenset operators on :class:`~repro.storage.relation.Relation` (the
  differential reference). Both run under the one interpreter of
  :mod:`repro.algebra.evaluator`. Read **once at import**; tests that
  flip the process default monkeypatch :data:`DEFAULT_ENGINE`.
* ``REPRO_CHECK_INVARIANTS`` — arms every runtime sanitizer of
  :mod:`repro.analysis` (:func:`sanitizer_enabled`): refresh read sets,
  answer read sets and, on a thm22 spec, the key check. Each asks
  whether a run stayed inside what the static analysis assumed. Read
  once per warehouse construction.

Neither is ever read on the evaluator hot path (``scripts/check_hotpath.py``
rule R5).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import EvaluationError, WarehouseError

ENGINE_ENV = "REPRO_ENGINE"
SANITIZER_ENV = "REPRO_CHECK_INVARIANTS"

ENGINE_TUPLE = "tuple"
ENGINE_COLUMNAR = "columnar"


def sanitizer_enabled() -> bool:
    """Whether ``REPRO_CHECK_INVARIANTS`` arms the runtime sanitizers.

    Unset, empty and ``0`` mean off; ``1`` means on; surrounding spaces
    are ignored. Any other value raises, so ``=false`` cannot arm the
    checks it reads as disarming.
    """
    raw = os.environ.get(SANITIZER_ENV, "")
    value = raw.strip()
    if value in ("", "0", "1"):
        return value == "1"
    raise WarehouseError(f"{SANITIZER_ENV}={raw!r}: expected unset, '0' or '1'")


def resolve_engine(engine: Optional[str]) -> str:
    """Normalize an engine request: ``None`` means the process default.

    Raises :class:`~repro.errors.EvaluationError` for unknown names, so a
    typo in an explicit ``engine=`` argument fails loudly instead of
    silently falling back to the default.

    Examples
    --------
    >>> resolve_engine("tuple")
    'tuple'
    >>> resolve_engine("columnar")
    'columnar'
    """
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in (ENGINE_TUPLE, ENGINE_COLUMNAR):
        raise EvaluationError(
            f"unknown evaluation engine {engine!r} "
            f"(expected {ENGINE_TUPLE!r} or {ENGINE_COLUMNAR!r})"
        )
    return engine


def _engine_from_environment() -> str:
    """The engine ``REPRO_ENGINE`` selects (unset or empty means columnar).

    The tuple engine is opted into with ``REPRO_ENGINE=tuple``. Matching
    ignores case and surrounding spaces; any other value raises, so a CI
    job meant to pin the reference engine cannot silently run the default.
    """
    value = os.environ.get(ENGINE_ENV, "").strip().lower()
    return resolve_engine(value) if value else ENGINE_COLUMNAR


#: The process default, read once at import (tests may monkeypatch it).
DEFAULT_ENGINE = _engine_from_environment()
