"""Static analysis of warehouse specifications (deploy-time checking).

The paper's guarantees — Propositions 2.1/2.2, Theorems 2.2 and 4.1 — hold
only when a warehouse specification satisfies structural preconditions: PSJ
form, declared keys, covers from ``V_K^ind``, acyclic INDs. This package
decides those preconditions *statically*, before any data flows:

* :mod:`~repro.analysis.typecheck` — a schema-aware typechecker for algebra
  expressions (``E01xx``), the diagnostic twin of the runtime's
  :meth:`~repro.algebra.expressions.Expression.attributes`;
* :mod:`~repro.analysis.lint` — the paper-semantics lint pass over view
  sets and specs (``W00xx``);
* :mod:`~repro.analysis.satisfiability` — static condition analysis;
* :mod:`~repro.analysis.report` / :mod:`~repro.analysis.specfile` — the
  ``python -m repro lint`` engine and its JSON spec-file format;
* :mod:`~repro.analysis.kernel` — the certificate kernel under the three
  provers: verdict vocabulary, the bounded determinacy search and its
  shrinker, the certificate-validation scaffold, and the one result shape
  (:class:`Verdict`, :class:`FileResult`, :class:`Witness`) with its
  presentation (:func:`exit_code`, text, JSON) and its load-or-error entry
  (:func:`decide_file`) behind ``prove``, ``prove-sharding`` and
  ``prove-query``;
* :mod:`~repro.analysis.prover` — the ``python -m repro prove`` decision
  layer: symbolic inversion certificates, bounded counterexample search,
  and the plan-dataflow analysis
  (:mod:`~repro.analysis.dataflow`) with its runtime sanitizer;
* :mod:`~repro.analysis.query` — the ``python -m repro prove-query``
  decision layer: per-query translation certificates (Theorem 3.1),
  answer-divergence witnesses and the kernel cost model, with the
  ``W02xx`` lint checks in :mod:`~repro.analysis.query_lint`.

``REPRO_CHECK_INVARIANTS=1`` arms the read-set sanitizer over refreshes
and answers (:func:`check_reads`). The sharded runtime's lock and commit
protocol is checked by exploring its interleavings
(``tests/integrator/explore.py``), not at runtime.

The diagnostic catalog is documented in ``docs/lint.md``; every code has a
stable meaning, a paper reference, and a triggering test.
"""

# repro.core's package import reaches repro.analysis.concurrency (through
# core.sharding) and, from there, most of this package: run it first,
# while no module below is half-imported.
import repro.core  # noqa: F401

from repro.analysis.diagnostics import (
    CATALOG,
    Diagnostic,
    Severity,
    SourceSpan,
    filter_ignored,
    has_errors,
    sort_diagnostics,
)
from repro.analysis.kernel import (
    FileResult,
    SearchOutcome,
    Verdict,
    Witness,
    decide_file,
)
from repro.analysis.dataflow import (
    DataflowReport,
    UpdateShape,
    check_reads,
    check_refresh_reads,
    spec_read_sets,
    static_refresh_reads,
    views_only_read_sets,
)
from repro.analysis.lint import lint_spec, lint_views, psj_parts
from repro.analysis.prover import (
    build_certificate,
    check_certificate,
    prove_target,
    search_counterexample,
    verify_witness,
)
from repro.analysis.query import (
    CostEstimate,
    build_query_certificate,
    check_query_certificate,
    estimate_cost,
    prove_queries_target,
    search_query_counterexample,
    verify_query_witness,
)
from repro.analysis.query_lint import lint_queries
from repro.analysis.report import (
    FileReport,
    display_path,
    exit_code,
    lint_file,
    render_json,
    render_text,
)
from repro.analysis.satisfiability import (
    tautological_conjuncts,
    unsatisfiable_reason,
)
from repro.analysis.specfile import (
    LintTarget,
    ProverOptions,
    QueryOptions,
    QuerySpec,
    load_target,
)
from repro.analysis.typecheck import typecheck_aggregate, typecheck_expression

__all__ = [
    "CATALOG",
    "CostEstimate",
    "DataflowReport",
    "Diagnostic",
    "FileReport",
    "FileResult",
    "LintTarget",
    "ProverOptions",
    "QueryOptions",
    "QuerySpec",
    "SearchOutcome",
    "Severity",
    "SourceSpan",
    "UpdateShape",
    "Verdict",
    "Witness",
    "build_certificate",
    "build_query_certificate",
    "check_certificate",
    "check_query_certificate",
    "check_reads",
    "check_refresh_reads",
    "decide_file",
    "display_path",
    "estimate_cost",
    "exit_code",
    "filter_ignored",
    "has_errors",
    "lint_file",
    "lint_queries",
    "lint_spec",
    "lint_views",
    "load_target",
    "prove_queries_target",
    "prove_target",
    "psj_parts",
    "render_json",
    "render_text",
    "search_counterexample",
    "search_query_counterexample",
    "sort_diagnostics",
    "spec_read_sets",
    "static_refresh_reads",
    "tautological_conjuncts",
    "typecheck_aggregate",
    "typecheck_expression",
    "unsatisfiable_reason",
    "verify_query_witness",
    "verify_witness",
    "views_only_read_sets",
]
