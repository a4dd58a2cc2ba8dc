"""The static query-translation prover behind ``python -m repro prove-query``.

Theorem 3.1 says every source query ``Q`` is answerable warehouse-only by
``Q^ = Q ∘ W^{-1}`` — *when* the warehouse mapping is invertible. This
module turns that claim into a per-query decision with evidence either
way:

* **PROVED** — a machine-checkable **translation certificate**: the
  rewritten ``Q ∘ W^{-1}`` expression (paper-shaped and optimized), the
  Equation (4) inversion facts it leans on (or the view folds, when the
  query is a view instance), a static read set proving zero
  source-relation reads, and a deterministic kernel-level cost estimate
  over the columnar kernel shapes. Certificates self-validate:
  :func:`check_query_certificate` re-parses every expression, re-checks
  the structural no-source-read invariant, and replays ``Q`` against the
  translation on seeded random constraint-satisfying databases.
* **REFUTED** — a minimal two-database witness: two constraint-satisfying
  source states with *identical* warehouse images but *different* query
  answers — the warehouse state underdetermines the answer, so no
  translation can exist. Witnesses are shrunk to minimal row counts and
  independently replay-verified (:func:`verify_query_witness`), like the
  sharding prover's interleaving witnesses.
* **UNKNOWN** — neither: no sufficient condition applied and the bounded
  search found no witness. The prover is sound, not complete — a query
  that is *semantically* determined by the views but not syntactically
  foldable comes back UNKNOWN, never falsely PROVED.

Three proof methods, tried in order per query:

1. ``inversion`` — the spec is invertible (``with-complement`` mode, or
   ``views-only`` with every complement provably empty): Theorem 3.1
   applies verbatim via :func:`repro.core.translation.translate_query`.
2. ``view-fold`` — the warehouse is lossy, but the query is built from
   the view definitions themselves: folding each definition occurrence to
   its view name (:func:`repro.algebra.rewriting.fold_occurrences`)
   leaves a warehouse-only expression.
3. bounded refutation search — the certificate kernel's determinacy
   search (:func:`repro.analysis.kernel.search`) observing the query's
   answer: the first image collision with diverging answers.

Certificates carry a ``canonical_digest`` (:mod:`repro.analysis.digest`),
and each file document records the
:func:`repro.core.translation.translation_digest` of the mapping its
verdicts were issued under.

Under ``REPRO_CHECK_INVARIANTS=1``,
:meth:`repro.core.warehouse.Warehouse.answer` cross-checks the traced
reads of every translated-query evaluation against the static read set
(:func:`repro.analysis.dataflow.check_reads`): Theorem 3.1's "no source
reads" becomes assertable per query, not just per refresh.
"""

from __future__ import annotations

from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ReproError, WarehouseError
from repro.algebra.evaluator import evaluate
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.algebra.optimize import optimize
from repro.algebra.parser import parse
from repro.algebra.rewriting import fold_occurrences
from repro.algebra.simplify import simplify
from repro.schema.catalog import Catalog
from repro.views.psj import View
from repro.core.complement import WarehouseSpec, specify
from repro.core.translation import translate_query
from repro.analysis.kernel import (
    CERTIFICATE_VERSION,
    DEFAULT_DOMAIN_SIZE,
    DEFAULT_MAX_MODEL_SIZE,
    DEFAULT_MAX_STATES,
    PROVED,
    QUERY_KIND,
    REFUTED,
    UNKNOWN,
    FileResult,
    Observe,
    Reader,
    SearchOutcome,
    State,
    Verdict,
    Witness,
    certified,
    replay_states,
    search,
    witness_problems,
)
from repro.analysis.specfile import LintTarget, QuerySpec

#: Row estimate for relations the spec file gives no ``queries.rows`` entry.
DEFAULT_ROW_ESTIMATE = 1000


# ----------------------------------------------------------------------
# Kernel-level cost model
# ----------------------------------------------------------------------


class OperatorCost(NamedTuple):
    """One operator's contribution to a translated query's cost estimate."""

    operator: str
    kernel: str
    rows_out: int
    cost: int

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready form (embedded in translation certificates)."""
        return {
            "operator": self.operator,
            "kernel": self.kernel,
            "rows_out": self.rows_out,
            "cost": self.cost,
        }


class CostEstimate(NamedTuple):
    """A deterministic kernel-level cost estimate for one expression.

    ``total`` sums per-operator costs in abstract row-touch units derived
    from the columnar kernel shapes (one vectorized pass per operator;
    hash joins pay build + probe + emit). It is a *planning* signal — the
    W0204 budget lint and certificate consumers compare totals, they do
    not promise wall-clock.
    """

    total: int
    rows_out: int
    budget: Optional[int]
    operators: Tuple[OperatorCost, ...]

    @property
    def within_budget(self) -> bool:
        """Whether the estimate respects the declared budget (if any)."""
        return self.budget is None or self.total <= self.budget

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready form (embedded in translation certificates)."""
        return {
            "total": self.total,
            "rows_out": self.rows_out,
            "budget": self.budget,
            "within_budget": self.within_budget,
            "operators": [operator.to_dict() for operator in self.operators],
        }


def _estimate(
    expression: Expression,
    scope: Mapping[str, Tuple[str, ...]],
    rows: Mapping[str, int],
    out: List[OperatorCost],
) -> int:
    """Post-order walk: append per-operator costs, return estimated rows."""
    if isinstance(expression, RelationRef):
        n = rows.get(expression.name, DEFAULT_ROW_ESTIMATE)
        out.append(OperatorCost("scan", "columnar.scan", n, n))
        return n
    if isinstance(expression, Empty):
        out.append(OperatorCost("empty", "columnar.empty", 0, 0))
        return 0
    if isinstance(expression, Select):
        n = _estimate(expression.child, scope, rows, out)
        conjuncts = len(list(expression.condition.conjuncts()))
        produced = n
        for _ in range(conjuncts):
            produced = max(produced // 2, 1) if produced else 0
        out.append(OperatorCost("select", "columnar.select", produced, n))
        return produced
    if isinstance(expression, Project):
        n = _estimate(expression.child, scope, rows, out)
        out.append(OperatorCost("project", "columnar.project", n, n))
        return n
    if isinstance(expression, Join):
        left = _estimate(expression.left, scope, rows, out)
        right = _estimate(expression.right, scope, rows, out)
        shared = set(expression.left.attributes(dict(scope))) & set(
            expression.right.attributes(dict(scope))
        )
        if shared:
            produced = max(left, right)
            cost = left + right + produced
            out.append(OperatorCost("join", "columnar.hash_join", produced, cost))
        else:
            produced = left * right
            cost = produced
            out.append(OperatorCost("join", "columnar.cartesian", produced, cost))
        return produced
    if isinstance(expression, Union):
        left = _estimate(expression.left, scope, rows, out)
        right = _estimate(expression.right, scope, rows, out)
        produced = left + right
        out.append(OperatorCost("union", "columnar.union", produced, produced))
        return produced
    if isinstance(expression, Difference):
        left = _estimate(expression.left, scope, rows, out)
        right = _estimate(expression.right, scope, rows, out)
        out.append(
            OperatorCost("difference", "columnar.difference", left, left + right)
        )
        return left
    if isinstance(expression, Rename):
        n = _estimate(expression.child, scope, rows, out)
        # Renames are dictionary-code metadata swaps in the columnar
        # engine: no per-row work.
        out.append(OperatorCost("rename", "columnar.rename", n, 0))
        return n
    raise WarehouseError(
        f"cost model cannot estimate operator {type(expression).__name__}"
    )


def estimate_cost(
    expression: Expression,
    scope: Mapping[str, Tuple[str, ...]],
    rows: Optional[Mapping[str, int]] = None,
    budget: Optional[int] = None,
) -> CostEstimate:
    """Estimate the kernel-level cost of evaluating ``expression``.

    ``scope`` maps every referenced relation to its attributes (needed to
    classify joins as hash joins vs cartesian products); ``rows`` gives
    per-relation cardinality estimates (``DEFAULT_ROW_ESTIMATE`` when
    absent). Deterministic: same expression and estimates, same result.
    """
    operators: List[OperatorCost] = []
    produced = _estimate(expression, scope, rows or {}, operators)
    total = sum(operator.cost for operator in operators)
    return CostEstimate(total, produced, budget, tuple(operators))


# ----------------------------------------------------------------------
# Witnesses: warehouse image collisions with diverging answers
# ----------------------------------------------------------------------


def observe_answer(query: Expression) -> Observe:
    """Observe ``Q(state ∪ image)`` — Theorem 3.1's question.

    The image is merged in so queries may also reference view names — the
    translation leaves warehouse names alone (Theorem 3.1), so the
    source-side oracle must bind them too.
    """

    def observe(state: State, image: State) -> object:
        return frozenset(evaluate(query, {**state, **image}).rows)

    return observe


def verify_query_witness(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    query: Expression,
    witness: Witness,
) -> List[str]:
    """Independently check a query witness; returns problem descriptions.

    A valid witness has (i) two constraint-satisfying states with (ii)
    identical images under every warehouse definition yet (iii) different
    answers to ``query`` — and the recorded answers must match a fresh
    evaluation, so golden witnesses replay against today's evaluator.
    """
    problems = witness_problems(
        catalog,
        definitions,
        observe_answer(query),
        witness,
        same="the two states give the same query answer",
    )
    recorded = witness.answers
    if recorded is None:
        return problems + ["witness records no query answers"]
    fresh = witness.answers_to(query, definitions)
    if fresh.left != tuple(recorded.left):
        problems.append("recorded left answer does not replay")
    if fresh.right != tuple(recorded.right):
        problems.append("recorded right answer does not replay")
    return problems


def search_query_counterexample(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    query: Expression,
    max_model_size: int = DEFAULT_MAX_MODEL_SIZE,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
    max_states: int = DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Search for two states with equal images but different answers.

    The kernel's determinacy search (:func:`repro.analysis.kernel.search`)
    observing the query's answer: constants mentioned by views, checks
    *and the query* seed the small domains; the first image group holding
    two different answers is returned, shrunk to a minimal witness that
    records both answers. Deterministic end to end.
    """
    outcome = search(
        catalog,
        definitions,
        observe_answer(query),
        dict(definitions, __query__=query),
        max_model_size=max_model_size,
        domain_size=domain_size,
        max_states=max_states,
    )
    if outcome.witness is None:
        return outcome
    answers = outcome.witness.answers_to(query, definitions)
    return outcome._replace(witness=outcome.witness._replace(answers=answers))


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------


def build_query_certificate(
    catalog: Catalog,
    warehouse: Mapping[str, Expression],
    query: Expression,
    translated: Expression,
    optimized: Expression,
    method: str,
    mode: str,
    cost: CostEstimate,
    inversions: Optional[Mapping[str, Expression]] = None,
    folds: Optional[Mapping[str, Expression]] = None,
) -> Dict[str, object]:
    """The machine-checkable certificate for one PROVED translation.

    Records the query, both translation forms (paper-shaped and
    optimized), the warehouse mapping ``W`` over sources, the Equation (4)
    inversions (``method="inversion"``) or the folded view definitions
    (``method="view-fold"``), the static read set, and the kernel cost
    estimate. Expressions are serialized in the parseable algebra syntax:
    a consumer needs only :func:`repro.algebra.parser.parse` to re-check
    it. Its :func:`~repro.analysis.digest.canonical_digest` is the
    plan-cache invalidation key.
    """
    warehouse_names = frozenset(warehouse)
    certificate: Dict[str, object] = {
        "version": CERTIFICATE_VERSION,
        "kind": QUERY_KIND,
        "mode": mode,
        "method": method,
        "query": str(query),
        "source_relations": {
            schema.name: list(schema.attributes) for schema in catalog.schemas()
        },
        "warehouse": {
            name: str(expression) for name, expression in warehouse.items()
        },
        "translated": str(translated),
        "optimized": str(optimized),
        "read_set": sorted(optimized.relation_names()),
        "cost": cost.to_dict(),
    }
    if inversions is not None:
        certificate["inversions"] = {
            relation: {
                "expression": str(expression),
                "references": sorted(
                    expression.relation_names() & warehouse_names
                ),
            }
            for relation, expression in inversions.items()
        }
    if folds is not None:
        certificate["folds"] = {
            name: str(expression) for name, expression in folds.items()
        }
    return certificate


def check_query_certificate(
    catalog: Catalog, certificate: Mapping[str, object]
) -> List[str]:
    """Independently validate a translation certificate.

    Structural checks: both translation forms parse and reference no
    source relation; the recorded read set matches the optimized form;
    every read names a declared warehouse relation. Numeric replay: on
    seeded random constraint-satisfying databases, ``Q`` over the sources
    (plus image, for mixed queries) must equal both translation forms
    evaluated over the warehouse image *alone* — the Theorem 3.1 equality,
    checked empirically. An empty result means the certificate stands on
    its own.
    """
    problems: List[str] = []
    reader = Reader(certificate, problems)
    definitions = reader.expressions("warehouse")
    query = reader.expression("query")
    translated = reader.expression("translated")
    optimized = reader.expression("optimized")
    read_set = reader.sequence("read_set")
    if problems or query is None or translated is None or optimized is None:
        return problems
    forms = (("translated", translated), ("optimized", optimized))

    sources = frozenset(catalog.relation_names())
    warehouse_names = frozenset(definitions)
    for label, expression in forms:
        source_refs = sorted(expression.relation_names() & sources)
        if source_refs:
            problems.append(
                f"{label} form references source relation(s) {source_refs} — "
                "a certified translation must read the warehouse only"
            )
        unknown = sorted(expression.relation_names() - warehouse_names)
        if unknown:
            problems.append(
                f"{label} form references undeclared relation(s) {unknown}"
            )
    recorded = sorted(str(name) for name in read_set)
    if recorded != sorted(optimized.relation_names()):
        problems.append(
            f"read_set {recorded} does not match the optimized form's "
            f"references {sorted(optimized.relation_names())}"
        )
    if problems:
        return problems

    def answers_agree(state: State, image: State) -> Iterable[str]:
        expected = evaluate(query, {**state, **image})
        for label, expression in forms:
            if evaluate(expression, image) != expected:
                yield (
                    f"the {label} form does not match source-side "
                    "evaluation of the query"
                )

    return replay_states(catalog, definitions, answers_agree)


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------


def default_queries(target: LintTarget) -> Tuple[QuerySpec, ...]:
    """Identity queries synthesized for a spec with no ``queries`` section.

    One per source relation — "can the warehouse answer ``R`` itself?" —
    which is exactly Proposition 2.1's injectivity question asked
    query-by-query: every spec therefore receives a verdict even before it
    declares any query. The expectation mirrors the spec-level prover's:
    an invertible spec must prove every identity query, a deliberately
    lossy one must refute at least its identities.
    """
    expect = "proved" if target.prover.expect == "proved" else "refuted"
    return tuple(
        QuerySpec(query=name, expect=expect, name=name)
        for name in target.catalog.relation_names()
    )


def invertible_spec(
    target: LintTarget, method: str = "thm22"
) -> Optional[WarehouseSpec]:
    """The spec to translate through, when Theorem 3.1 applies verbatim.

    ``with-complement`` mode: any successfully specified PSJ spec.
    ``views-only`` mode: only when every complement is provably empty
    (the views alone are invertible). ``None`` means the inversion method
    is unavailable and the prover falls back to view-folding / refutation.
    """
    if not all(view.is_psj() for view in target.views):
        return None
    try:
        spec = specify(target.catalog, target.views, method=method)
    except ReproError:
        return None
    if target.prover.mode == "views-only" and spec.complement_names():
        return None
    return spec


def _scopes(
    catalog: Catalog, views: Sequence[View]
) -> Tuple[Dict[str, Tuple[str, ...]], Dict[str, Tuple[str, ...]]]:
    source_scope = {s.name: s.attributes for s in catalog.schemas()}
    view_scope = {
        view.name: view.definition.attributes(source_scope) for view in views
    }
    return source_scope, view_scope


def _decide_query(
    target: LintTarget,
    spec: Optional[WarehouseSpec],
    item: QuerySpec,
    rows: Mapping[str, int],
    budget: Optional[int],
) -> Verdict:
    catalog = target.catalog
    views = target.views
    mode = target.prover.mode

    def undecided(query: str, method: str) -> Verdict:
        """The verdict under construction for ``item`` by ``method``."""
        label = item.label()
        facts = {"name": label, "query": query, "method": method}
        return Verdict(label, UNKNOWN, "", item.expect, facts)

    try:
        query = parse(item.query)
    except ReproError as exc:
        return undecided(item.query, "none")._replace(
            detail="query failed to parse", error=str(exc)
        )
    source_scope, view_scope = _scopes(catalog, views)
    known = set(source_scope) | set(view_scope)
    if spec is not None:
        known |= set(spec.warehouse_names())
    undeclared = sorted(query.relation_names() - known)
    if undeclared:
        return undecided(str(query), "none")._replace(
            detail="query references undeclared relations",
            error=f"undeclared relation(s) {undeclared}",
        )

    if spec is not None:
        return _prove_by_inversion(
            undecided(str(query), "inversion"), spec, query, mode, rows, budget
        )

    # Lossy warehouse: try folding the view definitions out of the query.
    replacements: Dict[Expression, Expression] = {
        view.definition: RelationRef(view.name) for view in views
    }
    merged_scope = dict(source_scope)
    merged_scope.update(view_scope)
    folded = simplify(fold_occurrences(query, replacements), merged_scope)
    sources = frozenset(catalog.relation_names())
    if not (folded.relation_names() & sources):
        return _prove_by_fold(
            undecided(str(query), "view-fold"),
            target, query, folded, mode, view_scope, rows, budget,
        )

    # Neither proof applies — search for an answer-divergence witness.
    searched = undecided(str(query), "search")
    definitions = {view.name: view.definition for view in views}
    outcome = search_query_counterexample(
        catalog,
        definitions,
        query,
        max_model_size=target.prover.max_model_size,
        domain_size=target.prover.domain_size,
    )
    if outcome.witness is None:
        coverage = "exhaustively" if outcome.exhausted else "partially (budget hit)"
        detail = (
            "no translation method applied and the bounded model space "
            f"({outcome.states_examined} state(s), searched {coverage}) "
            "contains no answer divergence"
        )
        return searched._replace(detail=detail)
    problems = verify_query_witness(catalog, definitions, query, outcome.witness)
    if problems:
        return searched._replace(
            detail="search produced an invalid witness", error="; ".join(problems)
        )
    detail = (
        "warehouse state underdetermines the answer: two states with "
        "identical images but different query answers, "
        f"≤{outcome.witness.max_rows_per_relation()} row(s) per relation "
        f"({outcome.states_examined} state(s) examined)"
    )
    return searched._replace(verdict=REFUTED, detail=detail, witness=outcome.witness)


def _prove_by_inversion(
    undecided: Verdict,
    spec: WarehouseSpec,
    query: Expression,
    mode: str,
    rows: Mapping[str, int],
    budget: Optional[int],
) -> Verdict:
    try:
        translated = translate_query(spec, query)
        optimized = translate_query(spec, query, optimized=True)
        cost = estimate_cost(
            optimized, spec.warehouse_scope(), rows=rows, budget=budget
        )
    except ReproError as exc:
        return undecided._replace(detail="translation failed", error=str(exc))
    referenced = sorted(query.relation_names() & set(spec.inverses))
    inversions = {name: spec.inverse_for(name) for name in referenced}
    certificate = build_query_certificate(
        spec.catalog,
        spec.definitions_over_sources(),
        query,
        translated,
        optimized,
        "inversion",
        mode,
        cost,
        inversions=inversions,
    )
    detail = (
        f"translated via Equation (4) inversion of {len(inversions)} base "
        f"relation(s); reads {len(sorted(optimized.relation_names()))} "
        f"warehouse relation(s), estimated cost {cost.total}"
    )
    proved = undecided._replace(verdict=PROVED, detail=detail, certificate=certificate)
    return certified(proved, check_query_certificate(spec.catalog, certificate))


def _prove_by_fold(
    undecided: Verdict,
    target: LintTarget,
    query: Expression,
    folded: Expression,
    mode: str,
    view_scope: Mapping[str, Tuple[str, ...]],
    rows: Mapping[str, int],
    budget: Optional[int],
) -> Verdict:
    views = target.views
    try:
        optimized = optimize(folded, dict(view_scope))
        cost = estimate_cost(optimized, view_scope, rows=rows, budget=budget)
    except ReproError as exc:
        return undecided._replace(
            detail="folded translation failed to optimize", error=str(exc)
        )
    used = folded.relation_names() | optimized.relation_names()
    folds = {
        view.name: view.definition for view in views if view.name in used
    }
    warehouse = {view.name: view.definition for view in views}
    certificate = build_query_certificate(
        target.catalog,
        warehouse,
        query,
        folded,
        optimized,
        "view-fold",
        mode,
        cost,
        folds=folds,
    )
    detail = (
        f"query folds onto {len(folds)} warehouse view(s) without touching "
        f"a source; estimated cost {cost.total}"
    )
    proved = undecided._replace(verdict=PROVED, detail=detail, certificate=certificate)
    return certified(proved, check_query_certificate(target.catalog, certificate))


def prove_queries_target(target: LintTarget, method: str = "thm22") -> FileResult:
    """Decide every declared (or synthesized) query of one loaded spec."""
    options = target.queries
    items = options.items if options is not None else default_queries(target)
    rows: Dict[str, int] = dict(options.rows or {}) if options is not None else {}
    budget = options.budget if options is not None else None
    spec = invertible_spec(target, method=method)
    facts: Dict[str, object] = {"kind": QUERY_KIND, "mode": target.prover.mode}
    if spec is not None:
        from repro.core.translation import translation_digest

        facts["translation_digest"] = translation_digest(spec)
    verdicts = tuple(
        _decide_query(target, spec, item, rows, budget) for item in items
    )
    return FileResult(target.path, facts, verdicts)
