"""Hybrid warehouses: store the complement's *expression*, not its data.

Section 6 of the paper: "If the queries to base relations required for the
computation of any specific C_i can be answered in reasonable time, then we
do not need to maintain C_i at the warehouse; we simply store the expression
for computing it. Otherwise, we have to maintain C_i at the warehouse."

:class:`HybridWarehouse` implements that knob. Complements named in
``virtual`` are *not* materialized; whenever an operation needs one (a
translated query touching it, an update whose maintenance plan references
it), its defining expression is evaluated against the sources through a
caller-provided access callback. The class counts those source round trips,
making the trade-off measurable: virtual complements save storage but each
use re-opens the dependence on source availability the paper's fully
materialized design removes.

Everything else is :class:`~repro.core.warehouse.Warehouse`: the class
overrides only its state hooks — which state an answer, a reconstruction
or a refresh runs over, and which relations a commit keeps.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Optional

from repro.errors import WarehouseError
from repro.algebra.evaluator import evaluate_all
from repro.algebra.expressions import Expression
from repro.storage.relation import Relation
from repro.storage.update import Update
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import State, normalize_update, side_mask
from repro.core.translation import with_images
from repro.core.warehouse import Warehouse
from repro.compiler.fuse import NEW_SUFFIX

SourceAccess = Callable[[str], Relation]


class HybridWarehouse(Warehouse):
    """A warehouse that keeps selected complements virtual (Section 6).

    Parameters
    ----------
    spec:
        An ordinary :class:`~repro.core.complement.WarehouseSpec`.
    virtual:
        Names of complement views to keep virtual (must be complement names
        from the spec; provably-empty complements are never materialized
        anyway and need not be listed).
    source_access:
        Callback ``relation name -> current Relation`` used whenever a
        virtual complement must be computed. Each *distinct base relation
        read* increments :attr:`source_queries`.
    """

    def __init__(
        self,
        spec: WarehouseSpec,
        virtual: Iterable[str],
        source_access: SourceAccess,
    ) -> None:
        super().__init__(spec)
        self.virtual: FrozenSet[str] = frozenset(virtual)
        unknown = self.virtual - set(spec.complement_names())
        if unknown:
            raise WarehouseError(
                f"virtual names {sorted(unknown)} are not stored complements"
            )
        self._source_access = source_access
        self.source_queries = 0

    # ------------------------------------------------------------------

    def _virtual_definitions(self) -> Dict[str, object]:
        by_name = {
            complement.name: complement
            for complement in self.spec.complements.values()
        }
        return {
            name: by_name[name].definition_over_sources(self.spec.views)
            for name in self.virtual
        }

    def _fetch_virtual(self, undo: Optional[Update] = None) -> Dict[str, Relation]:
        """Evaluate the virtual complements against the live sources.

        During ``apply``, the sources have already applied the update
        being processed, but the maintenance expressions need *pre-update*
        values; ``undo`` reverses exactly that update's deltas on the
        fetched relations. Like any source-querying scheme this is only
        consistent if no *other* update is in flight — the maintenance-
        anomaly caveat (see :mod:`repro.integrator`) that the fully
        materialized design avoids; Section 6's trade-off in one line.
        """
        definitions = self._virtual_definitions()
        needed: set = set()
        for expression in definitions.values():
            needed |= {
                name
                for name in expression.relation_names()
                if name in self.spec.catalog
            }
        source_state = {name: self._source_access(name) for name in sorted(needed)}
        if undo is not None:
            for delta in undo:
                if delta.relation in source_state:
                    source_state[delta.relation] = delta.inverted().apply_to(
                        source_state[delta.relation]
                    )
        self.source_queries += len(needed)
        return evaluate_all(definitions, source_state)

    def _full_state(self, undo: Optional[Update] = None) -> Dict[str, Relation]:
        """Materialized state plus freshly computed virtual complements."""
        return {**self.state, **self._fetch_virtual(undo)}

    def _reads_virtual(self, expressions: Iterable[Expression]) -> bool:
        """Whether evaluating ``expressions`` needs a virtual complement
        (as stored, or as the ``__new`` value an earlier program left)."""
        return any(
            name.removesuffix(NEW_SUFFIX) in self.virtual
            for expression in expressions
            for name in expression.relation_names()
        )

    # ------------------------------------------------------------------
    # The state hooks of :class:`~repro.core.warehouse.Warehouse`
    # ------------------------------------------------------------------

    def _state_for(self, *expressions: Expression) -> State:
        return self._full_state() if self._reads_virtual(expressions) else self.state

    def _answer_state(self, plan: Expression) -> State:
        # No image held (it would store what stays virtual); one fetch for all.
        inverses = self.spec.inverses
        bases = [inverses[n] for n in plan.relation_names() & inverses.keys()]
        return with_images(self.spec, plan, self._state_for(plan, *bases), self.engine)

    def _refresh_over(self, update: Update) -> State:
        # Virtual complements are fetched only if what is about to run
        # needs them: first the Equation (4) inverses that normalize the
        # update, then the programs of the effective update's plan (known
        # only once normalized; the refresh normalizes again, over the
        # state returned here).
        if self._reads_virtual(
            self.spec.inverse_for(relation) for relation in update.relations()
        ):
            return self._full_state(undo=update)
        effective = normalize_update(self.spec, self.state, update)
        if not effective.is_empty():
            plan = self._refresh_plans.program_for(
                frozenset(effective.relations()), side_mask(effective)
            )
            running = [p for p in plan.relations if p.kind != "pruned"]
            if any(p.name in self.virtual for p in running) or self._reads_virtual(
                side for p in running for side in (p.inserts, p.deletes)
            ):
                return self._full_state(undo=update)
        return self.state

    def _kept(self, by_name: dict) -> dict:
        return {
            name: value for name, value in by_name.items() if name not in self.virtual
        }

    def __repr__(self) -> str:
        return (
            f"HybridWarehouse(virtual={sorted(self.virtual)}, "
            f"source_queries={self.source_queries})"
        )
