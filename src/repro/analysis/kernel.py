"""The certificate kernel under the three provers.

The paper's three guarantees are one question asked of three functions —
*is this function of the source state determined by the stored image,
under the declared constraints?* — for the state itself (Proposition 2.1,
:mod:`repro.analysis.prover`), for a query's answer (Theorem 3.1,
:mod:`repro.analysis.query`) and for the global image given the shard
images (:mod:`repro.analysis.concurrency`). What those provers share is
defined here, once, so each of them is reduced to its decision procedure:
the verdict vocabulary; canonical row/state forms; one bounded determinacy
search (:func:`search`) with its witness checker and shrinker; one
certificate-validation scaffold (:class:`Reader`, :func:`replay_states`);
and one result protocol with its exit code, text and JSON presentation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import ReproError
from repro.algebra.conditions import And, Comparison, Condition, Constant, Not, Or
from repro.algebra.evaluator import evaluate_all
from repro.algebra.expressions import Expression, Select
from repro.algebra.parser import parse
from repro.schema.catalog import Catalog
from repro.storage.database import Database
from repro.storage.relation import Relation
from repro.core.independence import enumerate_states
from repro.analysis.digest import canonical_digest
from repro.analysis.specfile import LintTarget, load_target

CERTIFICATE_VERSION = 1

PROVED = "PROVED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"
#: Nothing to decide (a spec file without a ``"sharding"`` section).
UNSHARDED = "UNSHARDED"

REPLAY_SEEDS = (0, 1, 2)
REPLAY_ROWS = 12
REPLAY_DOMAIN = 8

DEFAULT_MAX_MODEL_SIZE = 2
DEFAULT_DOMAIN_SIZE = 2
DEFAULT_MAX_STATES = 50000

Row = Tuple[object, ...]
Rows = Tuple[Row, ...]
State = Dict[str, Relation]
#: ``observe(state, image)`` — what the warehouse is asked to determine
#: (a hashable value, compared with ``==``).
Observe = Callable[[State, State], object]

# ----------------------------------------------------------------------
# Canonical rows and states
# ----------------------------------------------------------------------


def _sort_key(value: object) -> Tuple[str, str]:
    return (type(value).__name__, repr(value))


def _row_key(row: Row) -> Tuple[Tuple[str, str], ...]:
    return tuple(_sort_key(value) for value in row)


def _sorted_rows(rows: Iterable[Row]) -> Rows:
    return tuple(sorted(rows, key=_row_key))


def _json_rows(rows: Iterable[Row]) -> List[List[object]]:
    return [list(row) for row in _sorted_rows(rows)]


def _without(relation: Relation, row: Row) -> Relation:
    return Relation(relation.attributes, [r for r in relation.rows if r != row])


def _state_valid(catalog: Catalog, state: State) -> bool:
    return Database(catalog, state, check=False).satisfies_constraints()


class Witness(NamedTuple):
    """Two source states with identical warehouse images.

    The evidence shape of every refutation: the stored image cannot tell
    the two apart, yet what the warehouse promised to determine — the
    state itself, or a query's answer — differs between them.
    """

    left: State
    right: State

    def max_rows_per_relation(self) -> int:
        """The larger side's largest relation — the witness's "size"."""
        sizes = [
            len(rel) for state in (self.left, self.right) for rel in state.values()
        ]
        return max(sizes) if sizes else 0

    def differing_relations(self) -> Tuple[str, ...]:
        """Relations on which the two states disagree."""
        return tuple(
            sorted(name for name in self.left if self.left[name] != self.right[name])
        )

    def states_document(self) -> Dict[str, object]:
        """Both states as deterministic JSON-ready data (rows sorted)."""
        return {
            "attributes": {
                name: list(self.left[name].attributes) for name in sorted(self.left)
            },
            "left": {n: _json_rows(self.left[n].rows) for n in sorted(self.left)},
            "right": {n: _json_rows(self.right[n].rows) for n in sorted(self.right)},
            "max_rows_per_relation": self.max_rows_per_relation(),
        }

    def to_dict(self) -> Dict[str, object]:
        """A deterministic JSON-ready rendering (rows sorted)."""
        return dict(
            self.states_document(), differs_in=list(self.differing_relations())
        )

    def describe(self) -> str:
        """Human-readable two-column rendering of the pair."""
        lines = []
        for name in sorted(self.left):
            left_rows = sorted(self.left[name].rows, key=_row_key)
            right_rows = sorted(self.right[name].rows, key=_row_key)
            marker = "  <- differs" if left_rows != right_rows else ""
            lines.append(f"{name}: {left_rows} vs {right_rows}{marker}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# The bounded determinacy search
# ----------------------------------------------------------------------


def _comparisons(condition: Condition) -> List[Comparison]:
    if isinstance(condition, Comparison):
        return [condition]
    if isinstance(condition, (And, Or)):
        out: List[Comparison] = []
        for part in condition.parts:
            out.extend(_comparisons(part))
        return out
    if isinstance(condition, Not):
        return _comparisons(condition.part)
    return []


def attribute_domains(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    size: int = DEFAULT_DOMAIN_SIZE,
) -> Dict[str, List[object]]:
    """Small candidate domains per attribute, seeded from mentioned constants.

    Constants compared against an attribute (in view definitions or check
    constraints) are relevant boundary values; the domain is padded with
    small integers until it holds at least ``size`` values, so selections
    can both pass and fail.
    """
    mentioned: Dict[str, Set[object]] = {}
    conditions: List[Condition] = []
    for definition in definitions.values():
        conditions.extend(
            node.condition for node in definition.walk() if isinstance(node, Select)
        )
    for schema in catalog.schemas():
        conditions.extend(catalog.checks(schema.name))
    for condition in conditions:
        for comparison in _comparisons(condition):
            oriented = comparison.canonical()
            if isinstance(oriented.right, Constant):
                for name in oriented.left.attributes():
                    mentioned.setdefault(name, set()).add(oriented.right.value)
    domains: Dict[str, List[object]] = {}
    for schema in catalog.schemas():
        for attribute in schema.attributes:
            values = sorted(mentioned.get(attribute, set()), key=_sort_key)
            filler = 0
            while len(values) < size:
                if all(type(filler) is not type(v) or filler != v for v in values):
                    values.append(filler)
                filler += 1
            domains[attribute] = values
    return domains


class SearchOutcome(NamedTuple):
    """Result of :func:`search`.

    ``witness`` is ``None`` when no collision was found; ``exhausted``
    records whether the bounded space was fully enumerated (an exhausted
    search without witness supports — but does not prove — determinacy).
    """

    witness: Optional[Witness]
    states_examined: int
    exhausted: bool


def witness_problems(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    observe: Observe,
    witness: Witness,
    same: str = "the two states give the same observation",
) -> List[str]:
    """Why ``witness`` refutes nothing; empty = a genuine counterexample.

    A witness has (i) two constraint-satisfying states with (ii)
    identical images under every definition yet (iii) different
    observations; ``same`` words the problem reported when (iii) fails.
    """
    problems: List[str] = []
    for side, state in (("left", witness.left), ("right", witness.right)):
        if not _state_valid(catalog, state):
            problems.append(f"{side} state violates the catalog's constraints")
    left_image = evaluate_all(definitions, witness.left)
    right_image = evaluate_all(definitions, witness.right)
    for name in definitions:
        if left_image[name] != right_image[name]:
            problems.append(f"images differ on warehouse relation {name!r}")
    if observe(witness.left, left_image) == observe(witness.right, right_image):
        problems.append(same)
    return problems


def shrink(
    witness: Witness,
    relations: Sequence[str],
    still_witness: Callable[[Witness], bool],
) -> Witness:
    """Greedily remove rows (from both sides) while the pair stays a witness.

    Deterministic: ``relations`` in the given order, rows in sorted
    order. The result is locally minimal — removing any single remaining
    row breaks ``still_witness``.
    """
    changed = True
    while changed:
        changed = False
        for relation in relations:
            pool = witness.left[relation].rows | witness.right[relation].rows
            for row in sorted(pool, key=_row_key):
                candidate = Witness(
                    {**witness.left, relation: _without(witness.left[relation], row)},
                    {**witness.right, relation: _without(witness.right[relation], row)},
                )
                if still_witness(candidate):
                    witness = candidate
                    changed = True
    return witness


def search(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    observe: Observe,
    seeds: Mapping[str, Expression],
    max_model_size: int = DEFAULT_MAX_MODEL_SIZE,
    domain_size: int = DEFAULT_DOMAIN_SIZE,
    max_states: int = DEFAULT_MAX_STATES,
) -> SearchOutcome:
    """Search for two states with equal images but different observations.

    Enumerates every constraint-satisfying state with at most
    ``max_model_size`` rows per relation over small derived domains (the
    constants ``seeds`` and the catalog's checks mention seed them),
    groups the states by warehouse image, and returns the first group
    holding two different observations — shrunk to a locally minimal
    witness. ``max_states`` bounds the enumeration (``exhausted`` is false
    when it bites). Deterministic end to end.
    """
    domains = attribute_domains(catalog, seeds, size=domain_size)
    seen: Dict[object, Dict[object, State]] = {}
    examined = 0
    for state in enumerate_states(
        catalog, domains, max_rows_per_relation=max_model_size
    ):
        examined += 1
        if examined > max_states:
            return SearchOutcome(None, examined, False)
        image = evaluate_all(definitions, state)
        image_key = tuple(
            (name, frozenset(image[name].rows)) for name in sorted(image)
        )
        observation = observe(state, image)
        bucket = seen.setdefault(image_key, {})
        if bucket and observation not in bucket:
            witness = shrink(
                Witness(next(iter(bucket.values())), state),
                catalog.relation_names(),
                lambda pair: not witness_problems(catalog, definitions, observe, pair),
            )
            return SearchOutcome(witness, examined, True)
        bucket.setdefault(observation, state)
    return SearchOutcome(None, examined, True)


# ----------------------------------------------------------------------
# Certificate validation: typed field access, parse-back, seeded replay
# ----------------------------------------------------------------------


class Reader:
    """Typed access to one object of an untrusted certificate document.

    A certificate may come from a file, so a validator never trusts its
    shape: a missing or ill-typed field becomes a problem string (appended
    to ``problems``) and an empty value the caller can keep going with —
    never an exception.
    """

    def __init__(
        self,
        document: Mapping[str, object],
        problems: List[str],
        what: str = "certificate",
    ) -> None:
        self.document = document
        self.problems = problems
        self.what = what

    def _complain(self, key: str, value: object, expected: str) -> None:
        self.problems.append(
            f"{self.what} lacks {key!r}" if value is None
            else f"{self.what} {key!r} is not {expected}"
        )

    def mapping(self, key: str, optional: bool = False) -> Mapping[str, object]:
        """``document[key]`` as a JSON object (``{}`` when it is not one)."""
        value = self.document.get(key)
        if isinstance(value, Mapping):
            return value
        if value is not None or not optional:
            self._complain(key, value, "an object")
        return {}

    def sequence(self, key: str, optional: bool = False) -> Sequence[object]:
        """``document[key]`` as a JSON list (``()`` when it is not one)."""
        value = self.document.get(key)
        if isinstance(value, (list, tuple)):
            return value
        if value is not None or not optional:
            self._complain(key, value, "a list")
        return ()

    def expression(self, key: str) -> Optional[Expression]:
        """``document[key]`` parsed back (``None`` when it does not parse)."""
        text = self.document.get(key)
        if not isinstance(text, str):
            self._complain(key, text, "an expression string")
            return None
        try:
            return parse(text)
        except ReproError as exc:
            self.problems.append(f"{self.what} {key!r} failed to parse: {exc}")
            return None

    def expressions(self, key: str) -> Dict[str, Expression]:
        """The ``name -> expression text`` object ``document[key]`` parsed back."""
        entries = Reader(self.mapping(key), self.problems, f"{self.what} {key!r}")
        parsed = {name: entries.expression(name) for name in entries.document}
        return {name: found for name, found in parsed.items() if found is not None}


def replay_states(
    catalog: Catalog,
    definitions: Mapping[str, Expression],
    check: Callable[[State, State], Iterable[str]],
) -> List[str]:
    """Replay ``check(state, image)`` on seeded constraint-satisfying states.

    The numeric half of every certificate validation: for each of
    :data:`REPLAY_SEEDS` a random database is generated (seeded,
    deterministic), its warehouse image evaluated under ``definitions``,
    and ``check`` asked for problems. An evaluation error anywhere in the
    step — a definition naming an unbound relation, say — is a problem,
    not an exception.
    """
    from repro.workloads.generator import random_database

    problems: List[str] = []
    for seed in REPLAY_SEEDS:
        state = random_database(
            seed, catalog, rows_per_relation=REPLAY_ROWS, domain_size=REPLAY_DOMAIN
        ).state()
        try:
            image = evaluate_all(definitions, state)
            problems.extend(f"replay (seed {seed}): {p}" for p in check(state, image))
        except ReproError as exc:
            problems.append(f"replay (seed {seed}) failed to evaluate: {exc}")
    return problems


# ----------------------------------------------------------------------
# Results: one protocol, one exit code, one presentation
# ----------------------------------------------------------------------


class Verdict(Protocol):
    """One decided question: a spec-level result or one query's verdict."""

    @property
    def verdict(self) -> str: ...
    @property
    def expect(self) -> str: ...
    @property
    def error(self) -> Optional[str]: ...
    @property
    def certificate(self) -> Optional[Dict[str, object]]: ...
    @property
    def witness(self) -> object: ...
    def line(self) -> str: ...


class FileResult(Protocol):
    """A prover's outcome for one spec file.

    ``verdicts()`` are the decided questions it holds (a spec-level
    result yields itself, a query result its per-query verdicts) and
    ``counts()`` their tally, keyed in summary order.
    """

    @property
    def path(self) -> str: ...
    @property
    def error(self) -> Optional[str]: ...
    def verdicts(self) -> Sequence[Verdict]: ...
    def counts(self) -> Dict[str, int]: ...
    def line(self) -> str: ...
    def document(self) -> Dict[str, object]: ...


def met(item: Verdict) -> bool:
    """Whether a verdict matches its declared expectation."""
    if item.error is not None:
        return False
    return item.verdict == UNSHARDED or item.verdict.lower() == item.expect


def tally(verdicts: Iterable[str], *also: str) -> Dict[str, int]:
    """Verdict counts, keyed in summary order (``also``: further verdicts)."""
    listed = list(verdicts)
    return {v.lower(): listed.count(v) for v in (PROVED, REFUTED, UNKNOWN) + also}


def evidence(item: Verdict, digest: bool = True) -> Dict[str, object]:
    """The evidence a verdict's document ends with.

    Its certificate (with the :func:`~repro.analysis.digest.canonical_digest`
    that keys the plan caches, when ``digest``), its witness and its error
    — whichever the verdict carries.
    """
    out: Dict[str, object] = {}
    if item.certificate is not None:
        out["certificate"] = item.certificate
        if digest:
            out["digest"] = canonical_digest(item.certificate)
    if item.witness is not None:
        # The sharding prover's witnesses are already documents.
        to_dict = getattr(item.witness, "to_dict", None)
        out["witness"] = item.witness if to_dict is None else to_dict()
    if item.error is not None:
        out["error"] = item.error
    return out


def exit_code(results: Sequence[FileResult], strict: bool = False) -> int:
    """Process verdict: 0 all expectations met, 1 mismatch, 2 any error.

    :data:`UNSHARDED` always passes (there is nothing to decide). Without
    ``strict``, UNKNOWN fails only when ``refuted`` was expected (a
    known-bad spec must stay refuted); with ``strict`` every UNKNOWN fails
    *unless* a query pinned ``"expect": "unknown"`` — an honest, documented
    incompleteness is not a CI failure, an accidental one is.
    """
    verdicts = [item for result in results for item in result.verdicts()]
    if any(result.error is not None for result in results) or any(
        item.error is not None for item in verdicts
    ):
        return 2
    for item in verdicts:
        if item.verdict == UNKNOWN and item.expect != "unknown":
            if strict or item.expect == "refuted":
                return 1
        elif not met(item):
            return 1
    return 0


def _totals(results: Sequence[FileResult]) -> Dict[str, int]:
    totals = {"files": len(results)}
    for result in results:
        for key, count in result.counts().items():
            totals[key] = totals.get(key, 0) + count
    return totals


def render_text(results: Sequence[FileResult], strict: bool = False) -> str:
    """Human-readable rendering for ``--format text``."""
    lines: List[str] = []
    for result in results:
        items = result.verdicts()
        nested = not (len(items) == 1 and items[0] is result)
        if nested:
            lines.append(result.line())
        indent = "  " if nested else ""
        for item in items:
            lenient = item.verdict == UNKNOWN and not strict
            expected = met(item) or (lenient and item.expect != "refuted")
            status = "" if expected else "  [unexpected]"
            lines.append(f"{indent}{item.line()}{status}")
            if item.error is not None:
                lines.append(f"{indent}  error: {item.error}")
            describe = getattr(item.witness, "describe", None)
            if describe is not None:
                lines.extend(f"{indent}  {line}" for line in describe().splitlines())
    units = {"files": "file(s)", "queries": "query(ies)"}
    summary = ", ".join(
        f"{count} {units.get(key, key)}" for key, count in _totals(results).items()
    )
    lines.append(f"{'FAIL' if exit_code(results, strict) else 'OK'}: {summary}")
    return "\n".join(lines)


def report_document(
    results: Sequence[FileResult], strict: bool = False
) -> Dict[str, object]:
    """The ``--format json`` report (the CI artifact) as JSON-ready data."""
    documents = [result.document() for result in results]
    report: Dict[str, object] = {
        "version": CERTIFICATE_VERSION,
        "strict": strict,
        "ok": exit_code(results, strict) == 0,
        "summary": _totals(results),
        "results": documents,
    }
    if documents and "kind" in documents[0]:
        report["kind"] = documents[0]["kind"]
    return report


def document_json(document: Mapping[str, object]) -> str:
    """A document as deterministic JSON text (sorted keys, one-space indent)."""
    return json.dumps(document, indent=1, sort_keys=True)


def write_documents(
    results: Sequence[FileResult], directory: str, suffix: str
) -> None:
    """Write each result's document to ``directory/<spec stem><suffix>``.

    Raises :class:`ValueError` — before writing anything — when two spec
    files share a stem: the second document would overwrite the first.
    """
    targets: Dict[str, FileResult] = {}
    for result in results:
        name = Path(result.path).stem + suffix
        if name in targets:
            raise ValueError(
                f"{targets[name].path} and {result.path} would both be "
                f"written to {name}"
            )
        targets[name] = result
    Path(directory).mkdir(parents=True, exist_ok=True)
    for name, result in targets.items():
        (Path(directory) / name).write_text(document_json(result.document()) + "\n")


def load_or_error(path: str) -> Union[LintTarget, str]:
    """The loaded spec file, or the load failure as an error string."""
    try:
        return load_target(path)
    except (OSError, ValueError, ReproError) as exc:
        return str(exc)
