"""Runtime race sanitizer for the sharded integrator.

Sibling of the dataflow sanitizer (:mod:`repro.analysis.dataflow`), armed
by the same ``REPRO_CHECK_INVARIANTS=1``: where that one cross-checks a
refresh's *reads* against Theorem 4.1's static read sets, this one checks the
concurrency protocol around shard refreshes against the static claims the
shard-independence prover makes (:mod:`repro.analysis.concurrency`):

* **lock order** — shard locks may only be acquired in ascending shard
  order (the deadlock-freedom invariant the ``W0102`` lint states
  statically); :meth:`RaceTracker.note_acquire` fails on the first
  out-of-order acquisition, contention or not;
* **refresh overlap** — between the first :meth:`RaceTracker.begin_refresh`
  of a batch and the commit that publishes it, no *other* worker may
  refresh the same shard. Under correct locking this cannot happen; with a
  broken lock protocol the second writer's state capture silently discards
  the first's (a lost update at commit), which is exactly what the tracker
  turns into a loud failure;
* **write footprints** — the warehouse relations a refresh actually
  changed must be inside the statically computed per-update-shape write
  footprint (:func:`repro.analysis.concurrency.write_footprint`); a write
  outside it means the engine and the analysis disagree.

The tracker is cooperative-concurrency-scoped: workers are identified by
their running :func:`asyncio.current_task` (``None`` for synchronous
callers, which therefore form one serial worker). The environment
variable is read once per warehouse construction
(:func:`repro.storage.engine.sanitizer_enabled`), never on a hot path.
"""

from __future__ import annotations

import asyncio
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import WarehouseError
from repro.storage.engine import SANITIZER_ENV


def _current_worker() -> Optional[object]:
    """The identity of the running worker (``None`` outside a task)."""
    try:
        return asyncio.current_task()
    except RuntimeError:
        return None


def _worker_label(worker: Optional[object]) -> str:
    if worker is None:
        return "<sync>"
    name = getattr(worker, "get_name", None)
    if callable(name):
        return str(name())
    return repr(worker)


class RaceTracker:
    """Dynamic cross-check of the sharded refresh protocol.

    One tracker per :class:`~repro.core.sharding.ShardedWarehouse`, active
    only under ``REPRO_CHECK_INVARIANTS=1``. Every check raises
    :class:`~repro.errors.WarehouseError` on the first violation —
    silently continuing would hide a broken commutativity guarantee.
    """

    __slots__ = ("_shards", "_held", "_claims")

    def __init__(self, shards: int) -> None:
        self._shards = shards
        #: Per worker id: shard locks currently held, in acquisition order.
        self._held: Dict[int, List[int]] = {}
        #: Per shard: the worker with an uncommitted refresh + its writes.
        self._claims: Dict[int, Tuple[Optional[object], FrozenSet[str]]] = {}

    # -- lock order ----------------------------------------------------

    def note_acquire(self, shard: int) -> None:
        """Record a shard-lock acquisition; fail if it is out of order."""
        worker = _current_worker()
        held = self._held.setdefault(id(worker), [])
        higher = [index for index in held if index >= shard]
        if higher:
            raise WarehouseError(
                f"sanitizer ({SANITIZER_ENV}=1): worker "
                f"{_worker_label(worker)} acquired the lock for shard "
                f"{shard} while holding lock(s) {higher} — shard locks "
                "must be acquired in ascending order (deadlock freedom)"
            )
        held.append(shard)

    def note_release(self, shard: int) -> None:
        """Record a shard-lock release."""
        worker = _current_worker()
        held = self._held.get(id(worker))
        if held is not None and shard in held:
            held.remove(shard)
            if not held:
                del self._held[id(worker)]

    # -- refresh overlap + write footprints ----------------------------

    def begin_refresh(self, shard: int, writes: FrozenSet[str]) -> None:
        """Open a shard's uncommitted-refresh window; fail on overlap."""
        worker = _current_worker()
        claim = self._claims.get(shard)
        if claim is not None and claim[0] is not worker:
            other_worker, other_writes = claim
            overlap = sorted(writes & other_writes)
            detail = (
                f"overlapping write sets {overlap}"
                if overlap
                else f"write sets {sorted(other_writes)} and {sorted(writes)}"
            )
            raise WarehouseError(
                f"sanitizer ({SANITIZER_ENV}=1): worker "
                f"{_worker_label(worker)} refreshed shard {shard} while "
                f"worker {_worker_label(other_worker)} has an uncommitted "
                f"refresh on it ({detail}) — the second commit would "
                "silently discard the first (racing shard writes)"
            )
        merged = writes if claim is None else claim[1] | writes
        self._claims[shard] = (worker, merged)

    def end_commit(self, shards: Iterable[int]) -> None:
        """Close the uncommitted-refresh windows a commit publishes."""
        for shard in shards:
            self._claims.pop(shard, None)

    def check_written(
        self, shard: int, static: FrozenSet[str], written: Iterable[str]
    ) -> None:
        """Fail if a refresh wrote outside its static write footprint."""
        extra = sorted(set(written) - static)
        if extra:
            raise WarehouseError(
                f"sanitizer ({SANITIZER_ENV}=1): shard {shard} refresh wrote "
                f"warehouse relation(s) {extra} outside the static write "
                f"footprint {sorted(static)} — the maintenance engine and "
                "the concurrency analysis disagree"
            )

    def __repr__(self) -> str:
        return (
            f"RaceTracker({self._shards} shards, "
            f"{len(self._claims)} open refresh(es), "
            f"{sum(len(h) for h in self._held.values())} lock(s) held)"
        )
