"""Canonical JSON digests shared by every certificate consumer.

The plan compiler's certificate cache key
(:func:`repro.compiler.certificate.certify`), the translated-plan cache key
(:func:`repro.core.translation.translation_digest`) and the provers'
certificate documents (:func:`repro.analysis.kernel.evidence`) hash their
evidence the same way: SHA-256 over the *canonical* JSON form — sorted
keys, minimal separators — so a digest is insensitive to dict ordering
and whitespace but changes whenever any recorded fact changes. Keeping
the function in one import-cycle-free leaf module guarantees they stay
digest-compatible: a sharding certificate and a plan-cache key computed
from the same document are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping


def canonical_json(document: Mapping[str, object]) -> str:
    """The canonical (sorted-keys, minimal-separators) JSON text."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_digest(document: Mapping[str, object]) -> str:
    """SHA-256 hex digest over :func:`canonical_json` of ``document``."""
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
