"""Invalidation coverage: the cached maintenance path changes nothing.

Replays the paper's worked examples (Figure 1 / Examples 2.1-2.4) through
the fast maintenance path (persistent :class:`EvaluationCache` + join fast
paths) and the seed path (fresh memo per refresh, no fast paths), asserting
byte-identical warehouse states after every step. Also pins the headline
cache property: refreshing against a source that did not change evaluates
zero expression nodes the second time around.
"""

from __future__ import annotations

import pytest

from repro import Update, View, Warehouse, parse, specify
from repro.algebra.evaluator import EvalStats
from repro.core.maintenance import refresh_state


def canonical(state):
    """A byte-comparable rendering of a warehouse state."""
    out = {}
    for name in sorted(state):
        relation = state[name]
        attrs = tuple(sorted(relation.attribute_set))
        out[name] = (attrs, tuple(sorted(relation.reorder(attrs).rows, key=repr)))
    return out


def replay_and_compare(catalog, views, initial_state, updates, method="thm22"):
    """Replay ``updates`` through cached and uncached tracks, step-locked."""
    spec = specify(catalog, views, method=method)
    fast = Warehouse(spec)
    fast.initialize(initial_state)
    slow = dict(fast.state)
    for step, update in enumerate(updates):
        fast.apply(update)
        # The seed path: per-refresh memo only, fast paths off.
        slow, _, _ = refresh_state(spec, slow, update, cache=None, fastpath=False)
        assert canonical(fast.state) == canonical(slow), f"diverged at step {step}"
    return fast


class TestFigure1Replay:
    def test_example_11_stream(self, figure1_catalog, figure1_database, sold_view):
        updates = [
            Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            Update.insert("Emp", ("clerk", "age"), [("Ken", 55)]),
            Update.delete("Sale", ("item", "clerk"), [("VCR", "Mary")]),
            Update.insert("Sale", ("item", "clerk"), [("Radio", "Ken"), ("TV set", "Paula")]),
            Update.delete("Emp", ("clerk", "age"), [("John", 25)]),
        ]
        fast = replay_and_compare(
            figure1_catalog, [sold_view], figure1_database.state(), updates
        )
        # Example 1.1's headline effect still lands through the cached path.
        assert ("Computer", "Paula", 32) in fast.relation("Sold").rows

    def test_example_24_referential_integrity(self, figure1_catalog_ri, sold_view):
        from repro import Database

        db = Database(figure1_catalog_ri)
        db.load("Emp", [("Mary", 23), ("John", 25), ("Paula", 32)])
        db.load("Sale", [("TV set", "Mary"), ("VCR", "Mary"), ("PC", "John")])
        updates = [
            Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            Update.insert("Emp", ("clerk", "age"), [("Ken", 55)]),
            Update.insert("Sale", ("item", "clerk"), [("Radio", "Ken")]),
        ]
        replay_and_compare(figure1_catalog_ri, [sold_view], db.state(), updates)


class TestExample21Replay:
    def test_rst_stream(self, example21_catalog):
        views = [View("V1", parse("R join S join T")), View("V2", parse("S"))]
        initial = {
            "R": [(1, 10), (2, 20), (3, 10)],
            "S": [(10, 100), (20, 200)],
            "T": [(100,), (300,)],
        }
        from repro import Relation

        state = {
            "R": Relation(("X", "Y"), initial["R"]),
            "S": Relation(("Y", "Z"), initial["S"]),
            "T": Relation(("Z",), initial["T"]),
        }
        updates = [
            Update.insert("T", ("Z",), [(200,)]),
            Update.insert("R", ("X", "Y"), [(4, 20)]),
            Update.delete("S", ("Y", "Z"), [(10, 100)]),
            Update.insert("S", ("Y", "Z"), [(30, 300)]),
            Update.delete("T", ("Z",), [(300,)]),
        ]
        replay_and_compare(example21_catalog, views, state, updates)


class TestExample22Replay:
    def test_projection_views_stream(self):
        from repro import Catalog, Relation

        catalog = Catalog()
        catalog.relation("R", ("A", "B", "C"))
        views = [
            View("V1", parse("pi[A, B](R)")),
            View("V2", parse("pi[B, C](R)")),
            View("V3", parse("sigma[B = 1](R)")),
        ]
        state = {"R": Relation(("A", "B", "C"), [(1, 1, 1), (1, 2, 2), (2, 1, 2)])}
        updates = [
            Update.insert("R", ("A", "B", "C"), [(3, 1, 3)]),
            Update.delete("R", ("A", "B", "C"), [(1, 2, 2)]),
            Update.insert("R", ("A", "B", "C"), [(2, 2, 1), (3, 3, 3)]),
        ]
        replay_and_compare(catalog, views, state, updates, method="prop22")


class TestExample23Replay:
    def test_keyed_ind_stream(self, example23_catalog, example23_views):
        from repro import Relation

        state = {
            "R1": Relation(("A", "B", "C"), [(1, 10, 100), (2, 20, 200)]),
            "R2": Relation(("A", "C", "D"), [(1, 100, 7)]),
            "R3": Relation(("A", "B"), [(2, 20)]),
        }
        updates = [
            Update.insert("R1", ("A", "B", "C"), [(3, 30, 300)]),
            Update.insert("R2", ("A", "C", "D"), [(2, 200, 8)]),
            Update.insert("R3", ("A", "B"), [(1, 10)]),
            Update.insert("R1", ("A", "B", "C"), [(4, 40, 400)]),
        ]
        replay_and_compare(example23_catalog, example23_views, state, updates)


class TestZeroEvaluationRefresh:
    """The cache's headline guarantee, as an EvalStats assertion."""

    def test_second_refresh_of_unchanged_source_evaluates_nothing(
        self, figure1_catalog, figure1_database, sold_view
    ):
        wh = Warehouse.specify(figure1_catalog, [sold_view])
        wh.initialize(figure1_database.state())
        noop = Update.insert("Sale", ("item", "clerk"), [("TV set", "Mary")])
        # First no-op refresh: the source rows are already present, so the
        # state does not change, but the inverse evaluations that *prove*
        # that run for real and warm the cache.
        wh.apply(noop)
        assert wh.last_refresh_stats.nodes_evaluated > 0
        # Second refresh of the unchanged source: every sub-expression is
        # served from the cross-update cache.
        wh.apply(noop)
        assert wh.last_refresh_stats.nodes_evaluated == 0
        assert wh.last_refresh_stats.cache_hits > 0

    def test_stats_accumulate(self, figure1_catalog, figure1_database, sold_view):
        wh = Warehouse.specify(figure1_catalog, [sold_view])
        wh.initialize(figure1_database.state())
        wh.insert("Sale", [("Computer", "Paula")])
        first_total = wh.eval_stats.nodes_evaluated
        assert first_total > 0
        wh.insert("Sale", [("Camera", "Ken")])
        assert wh.eval_stats.nodes_evaluated >= first_total
        assert isinstance(wh.last_refresh_stats, EvalStats)


class TestBatchedApply:
    def test_batch_equals_sequential(self, figure1_catalog, figure1_database, sold_view):
        spec = specify(figure1_catalog, [sold_view])
        sequential = Warehouse(spec)
        batched = Warehouse(spec)
        sequential.initialize(figure1_database.state())
        batched.initialize(figure1_database.state())
        updates = [
            Update.insert("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            Update.delete("Sale", ("item", "clerk"), [("Computer", "Paula")]),
            Update.insert("Emp", ("clerk", "age"), [("Ken", 55)]),
            Update.insert("Sale", ("item", "clerk"), [("Radio", "Ken")]),
        ]
        for update in updates:
            sequential.apply(update)
        batched.apply_batch(updates)
        assert canonical(sequential.state) == canonical(batched.state)

    def test_empty_batch_is_noop(self, figure1_catalog, figure1_database, sold_view):
        wh = Warehouse.specify(figure1_catalog, [sold_view])
        wh.initialize(figure1_database.state())
        before = canonical(wh.state)
        assert wh.apply_batch([]) == {}
        assert canonical(wh.state) == before
