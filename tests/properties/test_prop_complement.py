"""Property-based tests: complements reconstruct and the mapping is 1-1.

The central invariants of the paper, over randomized states:

* Equation (4) reconstructs every base relation exactly (Theorem 2.2);
* distinct states have distinct warehouse images (Proposition 2.1);
* query translation commutes (Theorem 3.1);
* incremental refresh equals the recomputed mapping (Theorem 4.1).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Catalog,
    Relation,
    Update,
    View,
    complement_prop22,
    complement_thm22,
    evaluate,
    parse,
)
from repro.core.independence import (
    reconstructed_state,
    verify_complement,
    warehouse_state,
)
from repro.core.maintenance import refresh_state
from repro.core.translation import answer_query

from .strategies import keyed_relation, relation, state_RST


def example21_specs():
    catalog = Catalog()
    catalog.relation("R", ("X", "Y"))
    catalog.relation("S", ("Y", "Z"))
    catalog.relation("T", ("Z",))
    single = complement_prop22(catalog, [View("V1", parse("R join S join T"))])
    multi = complement_prop22(
        catalog, [View("V1", parse("R join S join T")), View("V2", parse("S"))]
    )
    return single, multi


SINGLE, MULTI = example21_specs()


@given(state_RST())
@settings(max_examples=80, deadline=None)
def test_prop22_reconstructs(state):
    ok, problems = verify_complement(SINGLE, state)
    assert ok, problems


@given(state_RST())
@settings(max_examples=80, deadline=None)
def test_multiview_reconstructs(state):
    ok, problems = verify_complement(MULTI, state)
    assert ok, problems


@given(state_RST(), state_RST())
@settings(max_examples=60, deadline=None)
def test_mapping_injective_pairwise(first, second):
    def same_state(a, b):
        return all(a[k] == b[k] for k in ("R", "S", "T"))

    if same_state(first, second):
        return
    assert warehouse_state(SINGLE, first) != warehouse_state(SINGLE, second)


def keyed_catalog_spec():
    catalog = Catalog()
    catalog.relation("R", ("a", "b"), key=("a",))
    catalog.relation("S", ("b", "c"))
    spec = complement_thm22(
        catalog,
        [View("VA", parse("pi[a, b](R)")), View("VB", parse("R join S"))],
    )
    return spec


KEYED = keyed_catalog_spec()


@given(keyed_relation(("a", "b"), (0,)), relation(("b", "c")))
@settings(max_examples=80, deadline=None)
def test_thm22_reconstructs_with_keys(r, s):
    state = {"R": r, "S": s}
    ok, problems = verify_complement(KEYED, state)
    assert ok, problems


QUERY = parse("pi[X](R) union pi[X](R join S join T)")
QUERY2 = parse("pi[Y](S) minus pi[Y](R)")


@given(state_RST())
@settings(max_examples=60, deadline=None)
def test_query_translation_commutes(state):
    warehouse = warehouse_state(MULTI, state)
    for query in (QUERY, QUERY2):
        assert answer_query(MULTI, warehouse, query) == evaluate(query, state)


@given(
    state_RST(),
    st.sampled_from(["R", "S", "T"]),
    st.frozensets(
        st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=0, max_size=3
    ),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_incremental_refresh_commutes(state, target, rows, is_insert):
    attrs = state[target].attributes
    shaped = {tuple(row[: len(attrs)]) for row in rows}
    update = (
        Update.insert(target, attrs, shaped)
        if is_insert
        else Update.delete(target, attrs, shaped)
    )
    warehouse = warehouse_state(MULTI, state)
    new_warehouse, _, _ = refresh_state(MULTI, warehouse, update)
    new_state = dict(state)
    delta = update.delta_for(target)
    new_state[target] = delta.apply_to(state[target])
    assert new_warehouse == warehouse_state(MULTI, new_state)


@given(state_RST())
@settings(max_examples=40, deadline=None)
def test_roundtrip_state_equality(state):
    rebuilt = reconstructed_state(MULTI, warehouse_state(MULTI, state))
    for name in ("R", "S", "T"):
        assert rebuilt[name] == state[name]
