"""The static independence prover behind ``python -m repro prove``.

The paper's guarantees are decision-shaped: Proposition 2.1 says a
complement is exactly an injectivity witness for the warehouse mapping
``W``, and Theorems 3.1/4.1 say that storing ``W = V ∪ C`` buys query and
update independence. This module decides those questions per spec file and
emits evidence either way:

* **PROVED** — an explicit inversion plan exists: per base relation, the
  Equation (4) reconstruction expression over warehouse names, packaged
  with the key/inclusion/cover facts it depends on as a machine-checkable
  JSON **certificate** (:func:`build_certificate`). Certificates are
  self-validating: :func:`check_certificate` re-parses every expression,
  checks the structural invariants, and replays the ``W -> W^{-1}``
  round-trip on randomly generated constraint-satisfying databases. The
  differential suite (``tests/differential/test_certificates.py``) replays
  each shipped golden certificate the same way in CI.
* **REFUTED** — no proof exists and the bounded small-model search
  (:func:`search_counterexample`: the certificate kernel's determinacy
  search, :mod:`repro.analysis.kernel`, observing the state itself) found
  two distinct source databases with identical warehouse images — an
  injectivity violation per Proposition 2.1, shrunk to a minimal pair.
* **UNKNOWN** — neither: the sufficient conditions did not apply and the
  bounded search found no collision. The prover is sound, not complete.

Two modes per spec file (the ``"prover"`` section, see
:mod:`repro.analysis.specfile`): ``with-complement`` proves the derived
``V ∪ C`` invertible; ``views-only`` asks whether ``V`` alone already
determines the sources (Example 2.3/2.4 shapes, select-only warehouses).
Every certificate also embeds the plan-dataflow verdict
(:mod:`repro.analysis.dataflow`): which source relations each update shape
must read — empty everywhere iff the spec is update-independent
(Theorem 4.1).
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

from repro.errors import ReproError
from repro.algebra.evaluator import evaluate_all
from repro.algebra.expressions import Expression
from repro.schema.catalog import Catalog
from repro.core.complement import (
    WarehouseSpec,
    provably_empty_complements,
    specify,
)
from repro.core.covers import enumerate_covers, ind_key_views
from repro.analysis.dataflow import (
    DataflowReport,
    spec_read_sets,
    views_only_read_sets,
)
from repro.analysis.kernel import (
    CERTIFICATE_VERSION,
    DEFAULT_DOMAIN_SIZE,
    DEFAULT_MAX_MODEL_SIZE,
    DEFAULT_MAX_STATES,
    PROVED,
    REFUTED,
    UNKNOWN,
    Observe,
    Reader,
    SearchOutcome,
    State,
    Verdict,
    Witness,
    evidence,
    load_or_error,
    met,
    replay_states,
    search,
    tally,
    witness_problems,
)
from repro.analysis.report import display_path
from repro.analysis.specfile import LintTarget


class ProofResult(NamedTuple):
    """The prover's verdict for one spec file."""

    path: str
    verdict: str
    mode: str
    method: str
    detail: str
    certificate: Optional[Dict[str, object]] = None
    witness: Optional[Witness] = None
    expect: str = "proved"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        """Whether the verdict matches the spec's declared expectation."""
        return met(self)

    def verdicts(self) -> Sequence[Verdict]:
        """A spec-level result is its own one decided question."""
        return (self,)

    def counts(self) -> Dict[str, int]:
        """Verdict counts for summaries."""
        return tally([self.verdict])

    def line(self) -> str:
        """The one-line text form."""
        return (
            f"{display_path(self.path)}: {self.verdict} "
            f"({self.mode}, {self.method}) — {self.detail}"
        )

    def document(self) -> Dict[str, object]:
        """The per-file JSON document (written as the certificate artifact)."""
        return dict(
            version=CERTIFICATE_VERSION,
            spec=display_path(self.path),
            verdict=self.verdict,
            mode=self.mode,
            method=self.method,
            expect=self.expect,
            detail=self.detail,
            **evidence(self, digest=False),
        )


# ----------------------------------------------------------------------
# Refuting: Proposition 2.1's injectivity search
# ----------------------------------------------------------------------


def observe_state(catalog: Catalog) -> Observe:
    """Observe the source state itself — Proposition 2.1's question."""
    relations = catalog.relation_names()

    def observe(state: State, image: State) -> object:
        return tuple(frozenset(state[name].rows) for name in relations)

    return observe


def verify_witness(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    witness: Witness,
) -> List[str]:
    """Independently check a witness; returns problem descriptions.

    A valid witness has (i) two constraint-satisfying states that (ii)
    produce identical images under every definition in ``definitions``
    yet (iii) differ on some base relation. Empty result = genuine
    counterexample to injectivity (Proposition 2.1).
    """
    return witness_problems(
        catalog,
        definitions,
        observe_state(catalog),
        witness,
        same="the two states are identical",
    )


def search_counterexample(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    max_model_size: int = DEFAULT_MAX_MODEL_SIZE,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
    max_states: int = DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Search for two distinct states with equal images under ``definitions``.

    The kernel's determinacy search (:func:`repro.analysis.kernel.search`)
    observing the state itself: the first image collision between distinct
    states is shrunk to a minimal pair. Deterministic — same catalog and
    definitions, same witness — so refuted certificates can be pinned as
    golden files.

    Examples
    --------
    A lossy projection is not injective — one row suffices to show it:

    >>> from repro.schema import Catalog
    >>> from repro.algebra.parser import parse
    >>> catalog = Catalog()
    >>> _ = catalog.relation("Emp", ("clerk", "age"))
    >>> outcome = search_counterexample(catalog, {"V": parse("pi[clerk](Emp)")})
    >>> outcome.witness.max_rows_per_relation()
    1
    """
    return search(
        catalog,
        definitions,
        observe_state(catalog),
        definitions,
        max_model_size=max_model_size,
        domain_size=domain_size,
        max_states=max_states,
    )


# ----------------------------------------------------------------------
# Certificates
# ----------------------------------------------------------------------


def _catalog_facts(catalog: Catalog) -> List[Dict[str, object]]:
    facts: List[Dict[str, object]] = []
    for schema in catalog.schemas():
        if schema.key is not None:
            facts.append(
                {
                    "kind": "key",
                    "relation": schema.name,
                    "attributes": list(schema.key),
                }
            )
    for ind in catalog.inclusions():
        facts.append(
            {
                "kind": "inclusion",
                "lhs": ind.lhs,
                "lhs_attributes": list(ind.lhs_attributes),
                "rhs": ind.rhs,
                "rhs_attributes": list(ind.rhs_attributes),
            }
        )
    return facts


def _cover_facts(spec: WarehouseSpec) -> List[Dict[str, object]]:
    """The Theorem 2.2 cover structure each inversion draws on."""
    if spec.method != "thm22":
        return []
    facts: List[Dict[str, object]] = []
    for schema in spec.catalog.schemas():
        elements = ind_key_views(spec.catalog, list(spec.views), schema.name)
        covers = enumerate_covers(elements, frozenset(schema.attribute_set))
        for cover in covers:
            facts.append(
                {
                    "kind": "cover",
                    "relation": schema.name,
                    "elements": [element.label for element in cover],
                }
            )
    return facts


def _empty_complement_facts(spec: WarehouseSpec) -> List[Dict[str, object]]:
    return [
        {
            "kind": "empty_complement",
            "relation": complement.relation,
            "complement": complement.name,
        }
        for complement in spec.complements.values()
        if complement.provably_empty
    ]


def build_certificate(
    spec: WarehouseSpec, dataflow: DataflowReport, mode: str
) -> Dict[str, object]:
    """The machine-checkable certificate for a successfully inverted spec.

    Contains the warehouse mapping ``W`` (every stored relation as an
    expression over sources), the per-relation Equation (4) inversion with
    the warehouse relations it references, the key/inclusion/cover/
    emptiness facts the construction used, and the dataflow read sets.
    All expressions are serialized in the parseable algebra syntax, so a
    consumer needs only :func:`repro.algebra.parser.parse` to re-check it.
    """
    catalog = spec.catalog
    warehouse = {
        name: str(expression)
        for name, expression in spec.definitions_over_sources().items()
    }
    warehouse_names = frozenset(spec.warehouse_names())
    inversion: Dict[str, object] = {}
    for relation in catalog.relation_names():
        expression = spec.inverse_for(relation)
        inversion[relation] = {
            "expression": str(expression),
            "references": sorted(
                expression.relation_names() & warehouse_names
            ),
        }
    facts = (
        _catalog_facts(catalog)
        + _empty_complement_facts(spec)
        + _cover_facts(spec)
    )
    return {
        "version": CERTIFICATE_VERSION,
        "mode": mode,
        "method": spec.method,
        "source_relations": {
            schema.name: list(schema.attributes) for schema in catalog.schemas()
        },
        "warehouse": warehouse,
        "inversion": inversion,
        "facts": facts,
        "dataflow": dataflow.to_dict(),
    }


def check_certificate(
    catalog: Catalog, certificate: Mapping[str, object]
) -> List[str]:
    """Independently validate a certificate; returns problem descriptions.

    Structural checks: every inversion references only declared warehouse
    relations (never a source — that would break update independence), and
    every key/inclusion fact is actually declared in the catalog. Numeric
    replay: for several seeded random constraint-satisfying databases,
    evaluate ``W``, then the inversions over the image alone, and require
    the exact original state back (the Proposition 2.1 round-trip).

    An empty result means the certificate stands on its own: nothing here
    consults the spec object that produced it.
    """
    problems: List[str] = []
    reader = Reader(certificate, problems)
    definitions = reader.expressions("warehouse")
    inverses: Dict[str, Expression] = {}
    for relation, entry in reader.mapping("inversion").items():
        if not isinstance(entry, Mapping):
            problems.append(f"inversion of {relation!r} is not an object")
            continue
        where = f"inversion of {relation!r}"
        expression = Reader(entry, problems, where).expression("expression")
        if expression is not None:
            inverses[relation] = expression
    if problems:
        return problems

    sources = frozenset(catalog.relation_names())
    warehouse_names = frozenset(definitions)
    missing = sources - frozenset(inverses)
    if missing:
        problems.append(f"no inversion recorded for relation(s) {sorted(missing)}")
    for relation, expression in inverses.items():
        source_refs = sorted(expression.relation_names() & sources)
        if source_refs:
            problems.append(
                f"inversion of {relation!r} references source relation(s) "
                f"{source_refs} — reconstruction must read the warehouse only"
            )
        unknown = sorted(
            expression.relation_names() - warehouse_names - sources
        )
        if unknown:
            problems.append(
                f"inversion of {relation!r} references undeclared relation(s) "
                f"{unknown}"
            )
    for fact in reader.sequence("facts", optional=True):
        if not isinstance(fact, Mapping):
            problems.append(f"malformed fact {fact!r}")
            continue
        problems.extend(_check_fact(catalog, fact))
    if problems:
        return problems

    def roundtrip(state: State, image: State) -> Iterable[str]:
        # W then W^{-1} must be the identity on constraint-satisfying states.
        rebuilt = evaluate_all(inverses, image)
        for relation in catalog.relation_names():
            if rebuilt[relation] != state[relation]:
                yield (
                    f"reconstruction of {relation!r} does not match the "
                    "source state"
                )

    return replay_states(catalog, definitions, roundtrip)


def _check_fact(catalog: Catalog, fact: Mapping[str, object]) -> List[str]:
    kind = fact.get("kind")
    problems: List[str] = []

    def names(key: str) -> Tuple[str, ...]:
        recorded = Reader(fact, problems, f"{kind} fact").sequence(key)
        return tuple(str(name) for name in recorded)

    if kind == "key":
        relation = str(fact.get("relation"))
        if relation not in catalog:
            return [f"key fact names unknown relation {relation!r}"]
        declared = catalog.key(relation)
        if declared is None or tuple(declared) != names("attributes"):
            problems.append(
                f"key fact on {relation!r} does not match the declared key "
                f"{declared!r}"
            )
        return problems
    if kind == "inclusion":
        wanted = (
            str(fact.get("lhs")),
            names("lhs_attributes"),
            str(fact.get("rhs")),
            names("rhs_attributes"),
        )
        declared_inclusions = {
            (ind.lhs, tuple(ind.lhs_attributes), ind.rhs, tuple(ind.rhs_attributes))
            for ind in catalog.inclusions()
        }
        if wanted not in declared_inclusions:
            problems.append(
                f"inclusion fact {wanted!r} is not declared in the catalog"
            )
        return problems
    if kind in ("cover", "empty_complement"):
        return []  # derived facts; the numeric replay validates their effect
    return [f"unknown fact kind {kind!r}"]


# ----------------------------------------------------------------------
# The decision procedure
# ----------------------------------------------------------------------


def prove_target(
    target: LintTarget,
    method: str = "thm22",
    max_model_size: Optional[int] = None,
    mode: Optional[str] = None,
) -> ProofResult:
    """Decide one loaded spec file (see the module docstring for verdicts)."""
    options = target.prover
    chosen_mode = mode if mode is not None else options.mode
    model_size = (
        max_model_size if max_model_size is not None else options.max_model_size
    )
    catalog = target.catalog
    views = target.views
    all_psj = all(view.is_psj() for view in views)

    if chosen_mode == "with-complement" and all_psj:
        try:
            spec = specify(catalog, views, method=method)
        except ReproError as exc:
            return ProofResult(
                target.path, UNKNOWN, chosen_mode, method,
                "complement construction failed", expect=options.expect,
                error=str(exc),
            )
        return _proved(target, spec, spec_read_sets(spec), chosen_mode, method)

    if chosen_mode == "views-only" and all_psj:
        empty = provably_empty_complements(catalog, views)
        if empty >= frozenset(catalog.relation_names()):
            try:
                spec = specify(catalog, views, method=method)
            except ReproError as exc:
                return ProofResult(
                    target.path, UNKNOWN, chosen_mode, method,
                    "complement construction failed", expect=options.expect,
                    error=str(exc),
                )
            if not spec.complement_names():
                # Every complement is provably empty: the views alone are
                # invertible and the certificate's inversions mention view
                # names only.
                return _proved(
                    target, spec, views_only_read_sets(catalog, views),
                    chosen_mode, method,
                )

    # No proof applies — search for an injectivity violation of V itself.
    definitions = {view.name: view.definition for view in views}
    outcome = search_counterexample(
        catalog,
        definitions,
        max_model_size=model_size,
        domain_size=options.domain_size,
    )
    return _refuted_or_unknown(target, outcome, chosen_mode, method, definitions)


def _proved(
    target: LintTarget,
    spec: WarehouseSpec,
    dataflow: DataflowReport,
    mode: str,
    method: str,
) -> ProofResult:
    certificate = build_certificate(spec, dataflow, mode)
    problems = check_certificate(target.catalog, certificate)
    if problems:
        # The construction succeeded but its own evidence does not check
        # out — never claim PROVED on the strength of a broken certificate.
        return ProofResult(
            target.path, UNKNOWN, mode, method,
            "derived certificate failed self-validation",
            expect=target.prover.expect, error="; ".join(problems),
        )
    relations = len(target.catalog.relation_names())
    independent = bool(dataflow.update_independent)
    detail = (
        f"{relations} relation(s) reconstructible via Equation (4); "
        f"update-independent: {'yes' if independent else 'no'}"
    )
    return ProofResult(
        target.path, PROVED, mode, method, detail,
        certificate=certificate, expect=target.prover.expect,
    )


def _refuted_or_unknown(
    target: LintTarget,
    outcome: SearchOutcome,
    mode: str,
    method: str,
    definitions: Mapping[str, Expression],
) -> ProofResult:
    if outcome.witness is not None:
        problems = verify_witness(target.catalog, definitions, outcome.witness)
        if problems:
            return ProofResult(
                target.path, UNKNOWN, mode, method,
                "search produced an invalid witness",
                expect=target.prover.expect, error="; ".join(problems),
            )
        detail = (
            f"W is not injective: two distinct source states with identical "
            f"warehouse images, ≤{outcome.witness.max_rows_per_relation()} "
            f"row(s) per relation "
            f"({outcome.states_examined} state(s) examined)"
        )
        return ProofResult(
            target.path, REFUTED, mode, method, detail,
            witness=outcome.witness, expect=target.prover.expect,
        )
    coverage = "exhaustively" if outcome.exhausted else "partially (budget hit)"
    detail = (
        f"no sufficient condition applied and the bounded model space "
        f"({outcome.states_examined} state(s), searched {coverage}) "
        "contains no collision"
    )
    return ProofResult(
        target.path, UNKNOWN, mode, method, detail, expect=target.prover.expect
    )


def prove_file(
    path: str,
    method: str = "thm22",
    max_model_size: Optional[int] = None,
    mode: Optional[str] = None,
) -> ProofResult:
    """Load and decide one spec file; load failures become error results."""
    target = load_or_error(path)
    if isinstance(target, str):
        return ProofResult(
            path, UNKNOWN, mode or "with-complement", method,
            "spec file could not be loaded", error=target,
        )
    return prove_target(
        target, method=method, max_model_size=max_model_size, mode=mode
    )
