"""Property tests: delta-driven restriction is an evaluation strategy only.

Random PSJ / union / difference expressions over stored relations are
joined with, semi-joined with, or subtracted from a delta binding holding
at most 1/16 of the stored rows. With ``fastpath=True`` the evaluator may
evaluate the stored side only at the delta's key values; with
``fastpath=False`` it evaluates everything in full. Both must agree, on
both engines.
"""

from __future__ import annotations

from hypothesis import HealthCheck, Phase, find, given, settings
from hypothesis import strategies as st

from repro import Relation
from repro.algebra.conditions import AttributeRef, Comparison, Constant
from repro.algebra.evaluator import EvalStats, evaluate
from repro.algebra.expressions import (
    Difference,
    Join,
    Project,
    RelationRef,
    Select,
    Union,
)

VALUES = st.integers(min_value=0, max_value=3)
#: Stored relations; ``R`` and ``T`` are union-compatible.
SCHEMAS = {
    "R": ("a", "b", "c"),
    "S": ("b", "c", "d"),
    "T": ("a", "b", "c"),
    "U": ("c", "d"),
    "V": ("a", "d"),  # joined with S, splits the delta's key across operands
}
DELTA = "R__ins"


def _rows(attrs, count):
    row = st.tuples(*(VALUES for _ in attrs))
    return st.lists(row, min_size=count, max_size=count)


@st.composite
def states(draw):
    state = {
        name: Relation(attrs, draw(_rows(attrs, 32)))
        for name, attrs in SCHEMAS.items()
    }
    # Delta rows mostly repeat stored rows, as deletes do, so that the
    # restricted side has rows to find.
    stored = sorted(state["R"].rows | state["T"].rows)
    row = st.one_of(st.sampled_from(stored), st.tuples(VALUES, VALUES, VALUES))
    state[DELTA] = Relation(SCHEMAS["R"], draw(st.lists(row, min_size=1, max_size=2)))
    return state


@st.composite
def stored_expressions(draw, depth=2):
    """``(expression, attribute set)`` over the stored relations.

    A join whose operands share no attribute becomes a union or difference:
    cross products would only make the draws slow.
    """
    kinds = ["leaf"] if depth == 0 else ["leaf", "select", "project", "join", "setop"]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        name = draw(st.sampled_from(sorted(SCHEMAS)))
        return RelationRef(name), frozenset(SCHEMAS[name])
    child, attrs = draw(stored_expressions(depth - 1))
    if kind == "select":
        attr = draw(st.sampled_from(sorted(attrs)))
        op = draw(st.sampled_from(["=", "<", "!="]))
        condition = Comparison(AttributeRef(attr), op, Constant(draw(VALUES)))
        return Select(child, condition), attrs
    if kind == "project":
        kept = draw(st.lists(st.sampled_from(sorted(attrs)), min_size=1, unique=True))
        return Project(child, tuple(sorted(kept))), frozenset(kept)
    other, other_attrs = draw(stored_expressions(depth - 1))
    if kind == "join" and attrs & other_attrs:
        return Join(child, other), attrs | other_attrs
    # A union or difference needs equal attribute sets: project the other
    # side onto ``attrs`` when it covers them, else select from this side.
    if attrs <= other_attrs:
        other = Project(other, tuple(sorted(attrs)))
    else:
        attr = draw(st.sampled_from(sorted(attrs)))
        condition = Comparison(AttributeRef(attr), "=", Constant(draw(VALUES)))
        other = Select(child, condition)
    setop = draw(st.sampled_from([Union, Difference]))
    return setop(child, other), attrs


@st.composite
def cases(draw):
    """A delta-bearing expression and a state binding its delta."""
    stored, attrs = draw(stored_expressions())
    delta = RelationRef(DELTA)
    delta_attrs = frozenset(SCHEMAS["R"])
    shapes = ["join", "join_flipped", "semi_join"]
    if attrs & delta_attrs:
        shapes.append("difference")
    shape = draw(st.sampled_from(shapes))
    if shape == "join":
        expression = Join(delta, stored)
    elif shape == "join_flipped":
        expression = Join(stored, delta)
    elif shape == "semi_join":
        expression = Project(Join(delta, stored), SCHEMAS["R"])
    else:
        common = tuple(sorted(attrs & delta_attrs))
        expression = Difference(Project(delta, common), Project(stored, common))
    return expression, draw(states())


def _evaluate(case, fastpath, engine):
    expression, state = case
    stats = EvalStats()
    result = evaluate(expression, state, fastpath=fastpath, engine=engine, stats=stats)
    return result, stats


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_restricted_evaluation_equals_full_evaluation(case):
    reference, reference_stats = _evaluate(case, False, "tuple")
    assert reference_stats.restrictions == 0
    for engine in ("tuple", "columnar"):
        assert _evaluate(case, True, engine)[0] == reference
        assert _evaluate(case, False, engine)[0] == reference


def test_some_draws_restrict():
    restricting = find(
        cases(),
        lambda case: _evaluate(case, True, "tuple")[1].restrictions > 0,
        settings=settings(database=None, deadline=None, phases=[Phase.generate]),
    )
    assert _evaluate(restricting, True, "columnar")[1].restrictions > 0
