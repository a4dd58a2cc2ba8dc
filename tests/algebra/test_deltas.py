"""Unit tests for :mod:`repro.algebra.deltas`.

Each rule is checked semantically: for random states and random effective
deltas, the derived insert/delete expressions must evaluate exactly to
``new - old`` and ``old - new``.
"""

from __future__ import annotations

import random

import pytest

from repro import Relation, evaluate, parse
from repro.algebra.deltas import (
    del_name,
    delta_scope,
    derive_delta,
    infer_keys,
    ins_name,
    new_value_expression,
)

SCOPE = {"R": ("a", "b"), "S": ("b", "c"), "T": ("a", "b")}

EXPRESSIONS = [
    "R",
    "sigma[a = 1](R)",
    "pi[a](R)",
    "pi[b](R)",
    "R join S",
    "pi[a, c](R join S)",
    "R union T",
    "R minus T",
    "T minus R",
    "rho[a -> x](R)",
    "pi[b](R) union pi[b](S) join empty[b]",
    "(R union T) minus sigma[a = 0](R)",
    "pi[a]((R minus T) join S)",
    "sigma[b >= 1](R join S) minus (T join S)",
]


def random_state_and_deltas(seed: int, updated):
    rng = random.Random(seed)
    state = {}
    bindings = {}
    for name, attrs in SCOPE.items():
        rows = {
            tuple(rng.randrange(3) for _ in attrs) for _ in range(rng.randint(0, 6))
        }
        relation = Relation(attrs, rows)
        state[name] = relation
        if name in updated:
            candidates = [
                tuple(rng.randrange(3) for _ in attrs) for _ in range(4)
            ]
            inserts = Relation(attrs, [c for c in candidates if c not in relation])
            deletes_pool = sorted(relation.rows, key=repr)
            deletes = Relation(
                attrs,
                rng.sample(deletes_pool, min(len(deletes_pool), rng.randint(0, 2))),
            )
            bindings[ins_name(name)] = inserts
            bindings[del_name(name)] = deletes
    return state, bindings


def new_state(state, bindings, updated):
    out = dict(state)
    for name in updated:
        out[name] = (
            state[name].difference(bindings[del_name(name)]).union(
                bindings[ins_name(name)]
            )
        )
    return out


@pytest.mark.parametrize("text", EXPRESSIONS)
@pytest.mark.parametrize("updated", [("R",), ("S",), ("R", "T"), ("R", "S", "T")])
def test_deltas_are_exact(text, updated):
    expr = parse(text)
    if not (set(updated) & expr.relation_names()):
        pytest.skip("update does not touch the expression")
    derived = derive_delta(expr, updated, SCOPE)
    for seed in range(6):
        state, bindings = random_state_and_deltas(seed, updated)
        combined = dict(state)
        combined.update(bindings)
        old_value = evaluate(expr, state)
        updated_state = new_state(state, bindings, updated)
        new_value = evaluate(expr, updated_state)
        inserts = evaluate(derived.inserts, combined)
        deletes = evaluate(derived.deletes, combined)
        assert inserts == new_value.difference(old_value), (text, seed)
        assert deletes == old_value.difference(new_value), (text, seed)


#: Declared keys for the keyed rule: ``a`` keys R, ``b`` keys S; T has none.
KEYS = {"R": ("a",), "S": ("b",)}

KEYED_EXPRESSIONS = [
    "pi[a](R)",
    "pi[b](R)",
    "pi[a](sigma[b >= 1](R))",
    "pi[a, c](R join S)",
    "pi[a](R join S)",
    "pi[b, c](R join S)",
    "pi[a](R minus T)",
    "pi[a](R union T)",
    "pi[a](pi[a, b](R) join S)",
]


def keyed_state_and_deltas(seed: int, updated):
    """Random states and effective deltas under which ``KEYS`` hold, old and
    new; an insert may reuse a deleted row's key (a modification)."""
    rng = random.Random(seed)
    state, bindings = {}, {}
    for name, attrs in SCOPE.items():
        key = KEYS.get(name)
        position = attrs.index(key[0]) if key else None
        rows = {}
        for _ in range(rng.randint(0, 5)):
            row = tuple(rng.randrange(4) for _ in attrs)
            rows[row[position] if key else row] = row
        relation = Relation(attrs, rows.values())
        state[name] = relation
        if name not in updated:
            continue
        existing = sorted(relation.rows)
        deletes = rng.sample(existing, min(len(existing), rng.randint(0, 2)))
        taken = {row[position] for row in existing if row not in deletes} if key else set()
        inserts = []
        for _ in range(3):
            row = tuple(rng.randrange(4) for _ in attrs)
            if row in relation.rows or (key and row[position] in taken):
                continue
            if key:
                taken.add(row[position])
            inserts.append(row)
        bindings[ins_name(name)] = Relation(attrs, inserts)
        bindings[del_name(name)] = Relation(attrs, deletes)
    return state, bindings


@pytest.mark.parametrize("text", KEYED_EXPRESSIONS)
@pytest.mark.parametrize("updated", [("R",), ("S",), ("R", "S", "T")])
def test_keyed_deltas_are_exact_where_keys_hold(text, updated):
    expr = parse(text)
    if not (set(updated) & expr.relation_names()):
        pytest.skip("update does not touch the expression")
    derived = derive_delta(expr, updated, SCOPE, keys=KEYS)
    for seed in range(12):
        state, bindings = keyed_state_and_deltas(seed, updated)
        combined = {**state, **bindings}
        old_value = evaluate(expr, state)
        new_value = evaluate(expr, new_state(state, bindings, updated))
        assert evaluate(derived.inserts, combined) == new_value.difference(old_value)
        assert evaluate(derived.deletes, combined) == old_value.difference(new_value)


class TestKeyedProjectionRule:
    def test_projection_keeping_a_key_reads_only_the_child_deltas(self):
        derived = derive_delta(parse("pi[a, c](R join S)"), ["R"], SCOPE, keys=KEYS)
        assert str(derived.inserts) == (
            "pi[a, c](R__ins join S) minus pi[a, c](R__del join S)"
        )
        assert str(derived.deletes) == (
            "pi[a, c](R__del join S) minus pi[a, c](R__ins join S)"
        )

    def test_projection_dropping_every_key_keeps_the_general_rule(self):
        keyed = derive_delta(parse("pi[b](R)"), ["R"], SCOPE, keys=KEYS)
        assert keyed == derive_delta(parse("pi[b](R)"), ["R"], SCOPE)


class TestInferKeys:
    SCOPE = {**SCOPE, "U": ("c", "d")}
    KEYS = {**KEYS, "U": ("c",)}

    def keys_of(self, text):
        return {frozenset(key) for key in infer_keys(parse(text), self.SCOPE, self.KEYS)}

    def test_relation_has_its_declared_key(self):
        assert self.keys_of("R") == {frozenset("a")}

    def test_relation_without_a_declared_key_is_keyed_by_its_attributes(self):
        assert self.keys_of("T") == {frozenset("ab")}

    def test_selection_keeps_the_child_keys(self):
        assert self.keys_of("sigma[b = 1](R)") == {frozenset("a")}

    def test_projection_keeps_the_keys_inside_its_attributes(self):
        assert self.keys_of("pi[a](R)") == {frozenset("a")}
        assert self.keys_of("pi[b](R)") == {frozenset("b")}

    def test_join_on_the_other_sides_key_keeps_this_sides_keys(self):
        # R join S on b, which keys S: each R row meets at most one S row.
        assert self.keys_of("R join S") == {frozenset("a")}

    def test_join_without_a_shared_key_unions_one_key_from_each_side(self):
        assert self.keys_of("R join U") == {frozenset("ac")}
        assert self.keys_of("T join S") == {frozenset("ab")}

    def test_difference_keeps_the_left_keys(self):
        assert self.keys_of("R minus T") == {frozenset("a")}

    def test_union_has_no_key_but_its_attributes(self):
        assert self.keys_of("R union T") == {frozenset("ab")}

    def test_rename_claims_only_its_attributes(self):
        assert self.keys_of("rho[a -> x](R)") == {frozenset("xb")}

    def test_empty_is_keyed_by_its_attributes(self):
        assert self.keys_of("empty[a, b]") == {frozenset("ab")}


class TestHelpers:
    def test_delta_names(self):
        assert ins_name("Sale") == "Sale__ins"
        assert del_name("Sale") == "Sale__del"

    def test_delta_scope_extends(self):
        extended = delta_scope(SCOPE, ["R"])
        assert extended["R__ins"] == ("a", "b")
        assert extended["R__del"] == ("a", "b")

    def test_delta_scope_unknown_relation(self):
        from repro import ExpressionError

        with pytest.raises(ExpressionError):
            delta_scope(SCOPE, ["Nope"])

    def test_new_value_expression(self):
        expr = new_value_expression(parse("R join S"), ["R"])
        assert str(expr) == "((R minus R__del) union R__ins) join S"

    def test_unchanged_relation_has_empty_deltas(self):
        derived = derive_delta(parse("S"), ["R"], SCOPE)
        assert str(derived.inserts) == "empty[b, c]"
        assert str(derived.deletes) == "empty[b, c]"

    def test_simplification_removes_unchanged_branches(self):
        derived = derive_delta(parse("R join S"), ["R"], SCOPE)
        # Only the R-side delta branch survives.
        assert str(derived.inserts) == "R__ins join S"
        assert str(derived.deletes) == "R__del join S"

    def test_unsimplified_mode(self):
        derived = derive_delta(parse("R join S"), ["R"], SCOPE, simplified=False)
        assert "S__ins" not in str(derived.inserts)
        assert "empty" in str(derived.inserts)
