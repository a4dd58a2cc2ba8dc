"""The per-spec plan table: refresh plans and query plans.

A refresh plan (:class:`~repro.compiler.fuse.FusedPlan`) is a pure
function of the spec, the set of base relations an effective update
touches and its side mask (``"insert-only"`` / ``"delete-only"`` /
``"mixed"``); a query plan (Theorem 3.1's ``Q ∘ W^{-1}`` over inverse
images) is a pure function of the spec and the query. Both are derived once and
kept for the life of the spec: nothing evicts them.
:class:`RefreshCompiler` holds them; the one interpreter
(:func:`repro.algebra.evaluator.evaluate`, driven by
:func:`repro.core.maintenance.refresh_state` and
:func:`repro.core.translation.answer_query`) runs them.

There is one table per :class:`~repro.core.complement.WarehouseSpec`
object (:meth:`RefreshCompiler.of`), so a
:class:`~repro.core.warehouse.Warehouse`, every shard of a
:class:`~repro.core.sharding.ShardedWarehouse`, a
:class:`~repro.core.hybrid.HybridWarehouse` and bare ``refresh_state`` /
``answer_query`` callers over the same spec all share the derivations.

This module is a ``scripts/check_hotpath.py`` target: it reads no clocks
and no environment and opens no spans.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from repro.algebra.expressions import Expression
from repro.storage.update import Update
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import Refresh, State, refresh_state
from repro.core.translation import answer_plan
from repro.compiler.fuse import FusedPlan, fused_plan


class RefreshCompiler:
    """One spec's refresh and query plans, derived on first use and kept.

    ``compiles`` counts refresh-plan derivations (one
    :func:`~repro.core.maintenance.maintenance_expressions` call each) and
    ``plan_hits`` the lookups served from the table; ``misses`` and
    ``hits`` count the same for query plans (one
    :func:`~repro.core.translation.answer_plan` call per miss), and
    ``len()`` is the number of query plans held. All are plain cumulative
    ints (this module keeps clocks and metrics off the serving paths); a
    warehouse folds what its own refresh added into its ``compiler.*``
    metrics.
    """

    __slots__ = (
        "spec", "compiles", "plan_hits", "_plans", "hits", "misses", "_query_plans",
    )

    def __init__(self, spec: WarehouseSpec) -> None:
        self.spec = spec
        self.compiles = 0
        self.plan_hits = 0
        self._plans: Dict[Tuple[FrozenSet[str], str], FusedPlan] = {}
        self.hits = 0
        self.misses = 0
        self._query_plans: Dict[object, Expression] = {}

    @classmethod
    def of(cls, spec: WarehouseSpec) -> "RefreshCompiler":
        """The table shared by everything that serves under ``spec``."""
        compiler = getattr(spec, "_refresh_compiler", None)
        if compiler is None:
            compiler = spec._refresh_compiler = cls(spec)
        return compiler

    @property
    def plan_count(self) -> int:
        """Number of (update shape, side mask) pairs with a cached plan."""
        return len(self._plans)

    def cached_shapes(self) -> List[FrozenSet[str]]:
        """The update shapes with a cached plan (for tests/inspection)."""
        return sorted({updated for updated, _ in self._plans}, key=sorted)

    def program_for(self, updated: FrozenSet[str], mode: str = "mixed") -> FusedPlan:
        """The fused plan for one update shape and side mask.

        Plans are specialized per ``mode`` (``"mixed"``,
        ``"insert-only"``, ``"delete-only"``) as well as per shape:
        one-sided updates get the Example 4.1 compact forms with the
        unused delta branch folded away. Derives on miss.
        """
        key = (updated, mode)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = fused_plan(
                self.spec,
                updated,
                insert_only=(mode == "insert-only"),
                delete_only=(mode == "delete-only"),
            )
            self.compiles += 1
        else:
            self.plan_hits += 1
        return plan

    def query_plan(self, query: Expression) -> Expression:
        """:func:`~repro.core.translation.answer_plan` for ``query``.

        Derived on miss and keyed structurally (``Expression._key()``), so
        two spellings of one query share a plan.
        """
        key = query._key()
        plan = self._query_plans.get(key)
        if plan is None:
            plan = self._query_plans[key] = answer_plan(self.spec, query)
            self.misses += 1
        else:
            self.hits += 1
        return plan

    def __len__(self) -> int:
        return len(self._query_plans)

    def refresh(self, state: State, update: Update, **options) -> Refresh:
        """:func:`~repro.core.maintenance.refresh_state` under this spec.

        ``options`` are its ``cache`` / ``stats`` / ``fastpath`` /
        ``tracer`` / ``engine`` arguments, passed through.
        """
        return refresh_state(self.spec, state, update, **options)
