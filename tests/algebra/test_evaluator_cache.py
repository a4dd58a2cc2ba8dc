"""Tests for the evaluator's caching layers and join fast paths.

Covers the staleness regression (a per-state dict memo reused after the
state changed must raise, not silently return stale relations), the
cross-update :class:`EvaluationCache`, and :class:`EvalStats` accounting.
"""

from __future__ import annotations

import pytest

from repro import (
    EvalStats,
    EvaluationCache,
    EvaluationError,
    Relation,
    StateVersion,
    evaluate,
    evaluate_all,
    parse,
)


@pytest.fixture
def state():
    return {
        "Sale": Relation(("item", "clerk"), [("TV", "Mary"), ("PC", "John")]),
        "Emp": Relation(("clerk", "age"), [("Mary", 23), ("John", 25), ("Paula", 32)]),
    }


class TestDictMemoStalenessGuard:
    """Regression: a memo reused across states used to return stale results."""

    def test_same_state_reuse_is_fine(self, state):
        memo = {}
        first = evaluate(parse("Sale join Emp"), state, cache=memo)
        second = evaluate(parse("Sale join Emp"), state, cache=memo)
        assert first is second

    def test_reuse_after_rebinding_raises(self, state):
        memo = {}
        evaluate(parse("Sale join Emp"), state, cache=memo)
        changed = dict(state)
        changed["Sale"] = Relation(("item", "clerk"), [("VCR", "Paula")])
        with pytest.raises(EvaluationError, match="different state"):
            evaluate(parse("Sale join Emp"), changed, cache=memo)

    def test_reuse_after_removal_raises(self, state):
        memo = {}
        evaluate(parse("Emp"), state, cache=memo)
        smaller = {"Emp": state["Emp"]}
        with pytest.raises(EvaluationError, match="different state"):
            evaluate(parse("Emp"), smaller, cache=memo)

    def test_stale_results_never_served(self, state):
        # The historical hazard, end to end: without the guard the second
        # call would return the join computed from the *old* Sale.
        memo = {}
        old = evaluate(parse("Sale join Emp"), state, cache=memo)
        changed = dict(state)
        changed["Sale"] = Relation(("item", "clerk"), [("VCR", "Paula")])
        with pytest.raises(EvaluationError):
            evaluate(parse("Sale join Emp"), changed, cache=memo)
        fresh = evaluate(parse("Sale join Emp"), changed)
        assert fresh != old
        assert fresh.to_set() == {("VCR", "Paula", 32)}

    def test_evaluate_all_guarded_too(self, state):
        memo = {}
        evaluate_all({"j": parse("Sale join Emp")}, state, cache=memo)
        changed = dict(state)
        changed["Emp"] = Relation(("clerk", "age"), [("Mary", 24)])
        with pytest.raises(EvaluationError):
            evaluate_all({"j": parse("Sale join Emp")}, changed, cache=memo)


class TestStateVersion:
    def test_matches_identity_not_equality(self, state):
        version = StateVersion.capture(state)
        assert version.matches(state)
        equal_copy = {
            name: Relation(rel.attributes, rel.rows) for name, rel in state.items()
        }
        assert not version.matches(equal_copy)

    def test_partial_capture(self, state):
        version = StateVersion.capture(state, ["Emp"])
        assert version.names() == {"Emp"}
        changed = dict(state)
        changed["Sale"] = Relation(("item", "clerk"), [])
        assert version.matches(changed)  # Emp binding untouched
        changed["Emp"] = Relation(("clerk", "age"), [])
        assert not version.matches(changed)


class TestEvaluationCache:
    def test_cross_call_reuse(self, state):
        cache = EvaluationCache()
        stats = EvalStats()
        first = evaluate(parse("Sale join Emp"), state, cache=cache, stats=stats)
        assert stats.cache_hits == 0
        second = evaluate(parse("Sale join Emp"), state, cache=cache, stats=stats)
        assert first is second
        assert stats.cache_hits >= 1

    def test_unchanged_subtrees_survive_a_rebinding(self, state):
        cache = EvaluationCache()
        emp_only = parse("pi[clerk](Emp)")
        first = evaluate(emp_only, state, cache=cache)
        changed = dict(state)
        changed["Sale"] = Relation(("item", "clerk"), [("VCR", "Paula")])
        stats = EvalStats()
        second = evaluate(emp_only, changed, cache=cache, stats=stats)
        assert second is first  # Emp untouched: served from cache
        assert stats.nodes_evaluated == 0

    def test_touched_subtrees_recompute(self, state):
        cache = EvaluationCache()
        expr = parse("Sale join Emp")
        old = evaluate(expr, state, cache=cache)
        changed = dict(state)
        changed["Sale"] = Relation(("item", "clerk"), [("VCR", "Paula")])
        fresh = evaluate(expr, changed, cache=cache)
        assert fresh is not old
        assert fresh.to_set() == {("VCR", "Paula", 32)}

    def test_invalidate_by_name(self, state):
        cache = EvaluationCache()
        evaluate(parse("pi[clerk](Emp)"), state, cache=cache)
        evaluate(parse("pi[item](Sale)"), state, cache=cache)
        size_before = len(cache)
        cache.invalidate(["Emp"])
        assert len(cache) < size_before
        stats = EvalStats()
        evaluate(parse("pi[item](Sale)"), state, cache=cache, stats=stats)
        assert stats.cache_hits == 1

    def test_clear(self, state):
        cache = EvaluationCache()
        evaluate(parse("Sale join Emp"), state, cache=cache)
        cache.clear()
        assert len(cache) == 0

    def test_shared_cache_never_crosses_engines(self, state):
        """One cache, both engines by turns: each is served only its own kind.

        A columnar table handed to the tuple walk (or a relation to the
        columnar one) would fail on the first kernel call, or surface as a
        non-``Relation`` result — so correct results after alternation,
        over a changing state, show the tagged keys keep the two apart.
        """
        from repro.storage.columnar import ColumnarTable

        cache = EvaluationCache()
        texts = [
            "Sale join Emp",
            "pi[clerk](Sale join Emp)",
            "Emp minus pi[clerk, age](Emp join Sale)",
            "sigma[age > 23](Emp) union sigma[age = 23](Emp)",
        ]
        current = dict(state)
        for round_ in range(3):
            for engine in ("tuple", "columnar", "tuple", "columnar"):
                for text in texts:
                    expected = evaluate(parse(text), current, engine="tuple")
                    got = evaluate(parse(text), current, cache=cache, engine=engine)
                    assert isinstance(got, Relation)
                    assert got == expected, (round_, engine, text)
            current["Sale"] = current["Sale"].union(
                Relation(("item", "clerk"), [(f"item{round_}", "Paula")])
            )
        stored = {
            (key[0] == "@columnar", type(result))
            for key, (result, _version) in cache._entries.items()
        }
        assert stored == {(True, ColumnarTable), (False, Relation)}


class TestFastPathEquivalence:
    EXPRESSIONS = [
        "pi[clerk](Sale join Emp)",
        "pi[age](Sale join Emp)",
        "pi[item, age](Sale join Emp)",
        "Emp minus pi[clerk, age](Emp join Sale)",
        "Sale minus pi[item, clerk](Sale join Emp)",
        "pi[clerk](Sale) union pi[clerk](Emp)",
    ]

    @pytest.mark.parametrize("text", EXPRESSIONS)
    def test_fastpath_matches_naive(self, state, text):
        expr = parse(text)
        fast = evaluate(expr, state, fastpath=True)
        naive = evaluate(expr, state, fastpath=False)
        assert fast == naive

    def test_antijoin_fastpath_fires(self, state):
        stats = EvalStats()
        result = evaluate(
            parse("Emp minus pi[clerk, age](Emp join Sale)"),
            state,
            stats=stats,
        )
        assert result.to_set() == {("Paula", 32)}
        assert stats.antijoin_fastpaths == 1
        assert stats.joins == 0


class TestEvalStats:
    def test_merge_and_reset(self):
        a, b = EvalStats(), EvalStats()
        a.nodes_evaluated = 3
        b.nodes_evaluated = 4
        b.cache_hits = 2
        a.merge(b)
        assert a.nodes_evaluated == 7
        assert a.cache_hits == 2
        a.reset()
        assert a.snapshot() == {field: 0 for field in a.snapshot()}

    def test_counts_joins_and_rows(self, state):
        stats = EvalStats()
        evaluate(parse("Sale join Emp"), state, stats=stats)
        assert stats.joins == 1
        assert stats.rows_joined == 2
