"""Structured diagnostics: codes, severities, spans, and rendering.

Every finding of the static analyzer — the expression typechecker in
:mod:`repro.analysis.typecheck` and the warehouse lint pass in
:mod:`repro.analysis.lint` — is a :class:`Diagnostic`: a stable code, a
severity, a human message, an optional :class:`SourceSpan` locating the
finding inside an expression tree, a fix hint, and the paper reference that
motivates the check. The full catalog lives in :data:`CATALOG` and is
documented in ``docs/lint.md``.

Code ranges
-----------
``E01xx``
    Schema/type errors in algebra expressions (would raise
    :class:`~repro.errors.ExpressionError` at evaluation time).
``W001x``
    PSJ-form violations (Section 2; Section 5 fact tables).
``W002x``
    Statically decidable selection-condition defects.
``W003x``
    Theorem 2.2 precondition violations (missing keys/covers).
``W004x``
    Complement quality (provable emptiness, minimality certificates).
``W005x``
    View-set hygiene (duplicates, shadowing, equivalent definitions).
``W01xx``
    Concurrency protocol defects in the integrator/sharding runtime
    sources, found by the AST lint in
    :mod:`repro.analysis.concurrency_lint` (commit atomicity, lock order,
    lock-scoped mutation).
``W02xx``
    Query-translation defects in a spec file's declared queries, found by
    :mod:`repro.analysis.query_lint` (undeclared relations, translations
    that would read a source, conditions over projected-away attributes,
    cost-budget overruns).
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Sequence


class Severity(enum.IntEnum):
    """Diagnostic severity; higher is worse, ordering is meaningful."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def label(self) -> str:
        """The lower-case label used in rendered output."""
        return self.name.lower()


class SourceSpan(NamedTuple):
    """Where a diagnostic points: a context plus a path into its tree.

    Attributes
    ----------
    context:
        The named thing being analyzed, e.g. ``"view SalesFact"`` or
        ``"relation Orders"``.
    path:
        A slot path into the context's expression tree as produced by
        :func:`repro.algebra.visitors.format_path` (empty when the
        diagnostic applies to the context as a whole).
    snippet:
        The textual form of the offending node or condition.
    """

    context: str
    path: str = ""
    snippet: str = ""

    def render(self) -> str:
        """``context`` / ``context at path`` for message prefixes."""
        if self.path:
            return f"{self.context} at {self.path}"
        return self.context


class CodeInfo(NamedTuple):
    """Catalog entry for one diagnostic code."""

    title: str
    severity: Severity
    paper: str


#: The complete diagnostic catalog. ``docs/lint.md`` documents every entry
#: with an example and a fix; tests assert the two stay in sync.
CATALOG: Dict[str, CodeInfo] = {
    # -- E01xx: expression typechecking --------------------------------
    "E0101": CodeInfo(
        "unknown relation",
        Severity.ERROR,
        "Section 2: expressions are defined over the schemata of D",
    ),
    "E0102": CodeInfo(
        "projection onto attributes the input does not produce",
        Severity.ERROR,
        "Section 2: pi_Z requires Z ⊆ attr(input)",
    ),
    "E0103": CodeInfo(
        "selection condition over attributes the input does not produce",
        Severity.ERROR,
        "Section 2: sigma_C requires attr(C) ⊆ attr(input)",
    ),
    "E0104": CodeInfo(
        "union of incompatible schemata",
        Severity.ERROR,
        "Section 2: union requires identical attribute sets",
    ),
    "E0105": CodeInfo(
        "difference of incompatible schemata",
        Severity.ERROR,
        "Section 2: difference requires identical attribute sets",
    ),
    "E0106": CodeInfo(
        "rename of attributes the input does not produce",
        Severity.ERROR,
        "footnote 3: renaming applies to attributes of the operand",
    ),
    "E0107": CodeInfo(
        "rename collides with an existing attribute",
        Severity.ERROR,
        "footnote 3: renaming must keep attribute names distinct",
    ),
    "E0108": CodeInfo(
        "attribute compared with itself",
        Severity.WARNING,
        "Section 2: such atoms are constant true or constant false",
    ),
    "E0109": CodeInfo(
        "aggregate groups by an attribute its source does not produce",
        Severity.ERROR,
        "Section 5: aggregates ride on a maintained warehouse relation",
    ),
    "E0110": CodeInfo(
        "aggregate measures an attribute its source does not produce",
        Severity.ERROR,
        "Section 5: aggregates ride on a maintained warehouse relation",
    ),
    # -- W001x: PSJ form -----------------------------------------------
    "W0011": CodeInfo(
        "view definition is not a PSJ view",
        Severity.ERROR,
        "Section 2: warehouse views are PSJ views pi_Z(sigma_C(R1 join "
        "... join Rk)); Section 5 additionally allows union-integrated "
        "fact tables whose members are PSJ",
    ),
    "W0012": CodeInfo(
        "view joins a relation with itself",
        Severity.ERROR,
        "Section 2: the paper's fragment joins distinct relations; "
        "self-joins require renaming (footnote 3)",
    ),
    "W0013": CodeInfo(
        "join graph is disconnected (cartesian product)",
        Severity.WARNING,
        "Example 2.4 context: join-completeness analysis refuses "
        "cartesian joins; they are legal but rarely intended",
    ),
    # -- W002x: selection conditions -----------------------------------
    "W0021": CodeInfo(
        "selection condition is statically unsatisfiable",
        Severity.WARNING,
        "Section 3: containment (Chandra/Merlin) decides emptiness of "
        "the PSJ fragment; the view is the empty relation on every state",
    ),
    "W0022": CodeInfo(
        "tautological conjunct in a selection condition",
        Severity.INFO,
        "Section 2: a constant-true conjunct filters nothing",
    ),
    # -- W003x: Theorem 2.2 preconditions ------------------------------
    "W0031": CodeInfo(
        "attributes projected away and no key declared",
        Severity.WARNING,
        "Theorem 2.2 requires a declared key K_j to form V_{K_j}^ind; "
        "without one the complement stores the relation in full "
        "(Proposition 2.2 fallback)",
    ),
    "W0032": CodeInfo(
        "attributes projected away and no cover exists",
        Severity.WARNING,
        "Theorem 2.2: no subset of V_{K_j}^ind covers attr(R_j), so no "
        "extension join can reconstruct the projected-away attributes",
    ),
    "W0033": CodeInfo(
        "relation unused by every view",
        Severity.WARNING,
        "Proposition 2.2: with V_{R_i} empty, C_i = R_i - ∅ copies "
        "the relation into the warehouse",
    ),
    # -- W004x: complement quality -------------------------------------
    "W0041": CodeInfo(
        "stored complement is provably empty",
        Severity.INFO,
        "Examples 2.3/2.4: constraint analysis proves the complement "
        "empty on every legal state; it can be dropped from storage",
    ),
    "W0042": CodeInfo(
        "no minimality certificate for the complement",
        Severity.INFO,
        "Theorem 2.1 / Example 2.2: proper PSJ views without a theorem "
        "may yield non-minimal complements",
    ),
    # -- W005x: view-set hygiene ---------------------------------------
    "W0051": CodeInfo(
        "duplicate view name",
        Severity.ERROR,
        "Section 2: the warehouse definition is a set of *named* views",
    ),
    "W0052": CodeInfo(
        "two views are provably equivalent",
        Severity.WARNING,
        "Chandra/Merlin equivalence: one of the two materializations is "
        "redundant storage",
    ),
    "W0053": CodeInfo(
        "view name shadows a base relation",
        Severity.ERROR,
        "Section 3: query translation substitutes base relation names; "
        "shadowing makes W^{-1} ambiguous",
    ),
    "W0101": CodeInfo(
        "suspension point inside a commit block",
        Severity.ERROR,
        "MVCC publication: a commit must capture every touched shard's "
        "state in one synchronous block, or readers observe torn batches",
    ),
    "W0102": CodeInfo(
        "shard locks not provably acquired in sorted order",
        Severity.ERROR,
        "Deadlock freedom: concurrent workers acquiring shard locks in "
        "different orders can deadlock the integrator",
    ),
    "W0103": CodeInfo(
        "shared warehouse state mutated outside a lock scope",
        Severity.ERROR,
        "Batch commutativity (prove-sharding) is only sound when refreshes "
        "and commits happen under the touched shards' locks",
    ),
    # -- W02xx: query translation (prove-query) ------------------------
    "W0201": CodeInfo(
        "query references an undeclared relation",
        Severity.ERROR,
        "Section 3: queries are stated over the schemata of D (or over "
        "warehouse relation names); anything else cannot be translated",
    ),
    "W0202": CodeInfo(
        "translated query would still read a source relation",
        Severity.WARNING,
        "Theorem 3.1: Q^ = Q ∘ W^{-1} must be a warehouse-only "
        "expression; a residual source reference means the warehouse "
        "underdetermines the answer",
    ),
    "W0203": CodeInfo(
        "query condition needs an attribute every view projects away",
        Severity.WARNING,
        "Theorem 2.2 context: without a complement covering the "
        "attribute, a selection on it cannot be evaluated warehouse-only",
    ),
    "W0204": CodeInfo(
        "translated query cost estimate exceeds the declared budget",
        Severity.WARNING,
        "Section 3 practicality: translation is only useful if Q^ is "
        "evaluable within the serving path's kernel budget",
    ),
}


class Diagnostic(NamedTuple):
    """One analyzer finding.

    Attributes
    ----------
    code:
        A :data:`CATALOG` key, e.g. ``"W0031"``.
    severity:
        The effective severity (catalog default unless overridden).
    message:
        The finding, specific to this occurrence.
    span:
        Where it points, or ``None`` for spec-global findings.
    hint:
        A fix suggestion (may be empty).
    paper:
        The paper reference from the catalog.
    """

    code: str
    severity: Severity
    message: str
    span: Optional[SourceSpan] = None
    hint: str = ""
    paper: str = ""

    def render(self) -> str:
        """The multi-line textual form used by ``--format text``."""
        where = f" in {self.span.render()}" if self.span is not None else ""
        lines = [f"{self.severity.label()}[{self.code}]{where}: {self.message}"]
        if self.span is not None and self.span.snippet:
            lines.append(f"  | {self.span.snippet}")
        if self.paper:
            lines.append(f"  = paper: {self.paper}")
        if self.hint:
            lines.append(f"  = help: {self.hint}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready form used by ``--format json``."""
        out: Dict[str, object] = {
            "code": self.code,
            "severity": self.severity.label(),
            "message": self.message,
            "hint": self.hint,
            "paper": self.paper,
        }
        if self.span is not None:
            out["span"] = {
                "context": self.span.context,
                "path": self.span.path,
                "snippet": self.span.snippet,
            }
        return out


def make(
    code: str,
    message: str,
    span: Optional[SourceSpan] = None,
    hint: str = "",
    severity: Optional[Severity] = None,
) -> Diagnostic:
    """Build a :class:`Diagnostic`, pulling defaults from :data:`CATALOG`."""
    info = CATALOG[code]
    return Diagnostic(
        code=code,
        severity=severity if severity is not None else info.severity,
        message=message,
        span=span,
        hint=hint,
        paper=info.paper,
    )


def has_errors(diagnostics: Sequence[Diagnostic]) -> bool:
    """Whether any diagnostic is an :data:`Severity.ERROR`."""
    return any(d.severity is Severity.ERROR for d in diagnostics)


def filter_ignored(
    diagnostics: Sequence[Diagnostic], ignore: Sequence[str]
) -> List[Diagnostic]:
    """Drop diagnostics whose code is in ``ignore`` (exact match)."""
    if not ignore:
        return list(diagnostics)
    ignored = frozenset(ignore)
    return [d for d in diagnostics if d.code not in ignored]


def sort_diagnostics(diagnostics: Sequence[Diagnostic]) -> List[Diagnostic]:
    """Stable display order: severity descending, then code, then context."""
    return sorted(
        diagnostics,
        key=lambda d: (
            -int(d.severity),
            d.code,
            d.span.context if d.span is not None else "",
            d.span.path if d.span is not None else "",
        ),
    )
