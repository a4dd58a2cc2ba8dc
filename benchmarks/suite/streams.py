"""Seeded update streams and query lists for the benchmark suite.

Everything a workload feeds the warehouse is generated here, from the seed,
before any timing starts. The generator keeps key counters and live-row
tables of its own, so one notification costs O(its rows) to produce;
``repro.workloads.tpcd.order_insert_rows`` rescans the database per call and
is not used.

Streams are *constraint-respecting* (an order is reported before its
lineitems, lineitems are deleted in the transaction that deletes their
order, dimension churn only touches rows nothing references, so the three
sources of ``ingest_serve`` may be folded in any interleaving) and
*size-stationary* (every block of twenty notifications deletes about as many
rows as it inserts): refresh latency grows with the warehouse, so a stream
that grows would make the numbers depend on how long the run is.

Compositions are exact per block rather than drawn per notification. The
driver compares runs at different seeds, and a Bernoulli mix would put
seed-to-seed sampling noise into every percentile.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro import Database, Relation, Update
from repro.storage.update import Delta
from repro.workloads.tpcd import SEGMENTS, STATUSES, TPCDInstance

BLOCK = 20

#: Notifications per block of 20, by kind. ``delete`` removes whole orders
#: (lineitems and order row in one transaction) until it has removed as many
#: rows as the block's ``order`` and ``lines`` notifications insert.
TRICKLE_BLOCK = {"order": 8, "lines": 8, "delete": 2, "modify": 1, "churn": 1}
#: The same for ``ingest_serve``: 17 of 20 from OrdersDB, 2 CRM, 1 RefDB.
INGEST_BLOCK = {"order": 7, "lines": 7, "delete": 2, "modify": 1, "crm": 2, "ref": 1}

SOURCES = {
    "OrdersDB": ("Orders", "Lineitem"),
    "CRM": ("Customer",),
    "RefDB": ("Region", "Nation", "Supplier", "Part"),
}
_OWNER = {rel: source for source, rels in SOURCES.items() for rel in rels}


@dataclass(frozen=True)
class Op:
    """One refresh operation: what one ``apply``/``apply_batch`` call folds."""

    kind: str
    updates: Tuple[Update, ...]  # one notification each
    rows: int  # reported source rows, inserts + deletes
    source: str = ""  # the AsyncSource that reports it (ingest_serve)


@dataclass(frozen=True)
class Query:
    """One source query, as the text a client would send."""

    text: str
    template: str
    klass: str
    fresh: bool  # literal outside the hot set: a TranslationCache miss


class StreamGenerator:
    """Live-row bookkeeping over a generated TPC-D-like instance."""

    def __init__(self, instance: TPCDInstance, seed: int) -> None:
        self.rng = random.Random(seed)
        state = instance.database.state()
        self.attrs = {name: rel.attributes for name, rel in state.items()}
        self.sizes = {name: len(rel) for name, rel in state.items()}
        self.orders: Dict[int, tuple] = {row[0]: row for row in state["Orders"].rows}
        self.lines: Dict[int, List[tuple]] = {key: [] for key in self.orders}
        for row in state["Lineitem"].rows:
            self.lines[row[0]].append(row)
        # Orders that have their lineitems (deletable, modifiable), in a list
        # for O(1) random choice and swap-pop removal.
        self.complete: List[int] = sorted(k for k, v in self.lines.items() if v)
        self.pending: List[int] = []  # inserted, lineitems not yet reported
        self.next_order = max(self.orders) + 1
        # Dimension rows of the initial extract are never deleted, so every
        # foreign key the stream writes stays valid on every source.
        self.dim_keys = {
            name: sorted(row[0] for row in state[name].rows)
            for name in ("Region", "Nation", "Supplier", "Customer", "Part")
        }
        self.next_dim = {name: max(keys) + 1 for name, keys in self.dim_keys.items()}
        self.churned: Dict[str, List[tuple]] = {name: [] for name in self.dim_keys}
        self._churn_turns: Dict[Tuple[str, ...], int] = {}
        self.batches: List[List[int]] = []  # refresh_bulk: inserted, oldest first

    # -- single notifications -------------------------------------------

    def _op(self, kind: str, update: Update) -> Op:
        rows = sum(len(d.inserts) + len(d.deletes) for d in update)
        owner = _OWNER[update.relations()[0]]
        return Op(kind, (update,), rows, owner)

    def _new_order_row(self) -> tuple:
        rng = self.rng
        key = self.next_order
        self.next_order += 1
        row = (
            key,
            rng.choice(self.dim_keys["Customer"]),
            rng.choice(STATUSES),
            rng.randint(10_000, 1_000_000),
        )
        self.orders[key] = row
        self.lines[key] = []
        return row

    def _new_line_rows(self, key: int, count: int = 2) -> List[tuple]:
        rng = self.rng
        rows = [
            (
                key,
                line,
                rng.choice(self.dim_keys["Part"]),
                rng.choice(self.dim_keys["Supplier"]),
                rng.randint(1, 50),
                rng.randint(1_000, 50_000),
            )
            for line in range(1, count + 1)
        ]
        self.lines[key] = rows
        return rows

    def insert_order(self) -> Op:
        row = self._new_order_row()
        self.pending.append(row[0])
        return self._op("order", Update.insert("Orders", self.attrs["Orders"], [row]))

    def insert_lines(self) -> Op:
        key = self.pending.pop(self.rng.randrange(len(self.pending)))
        rows = self._new_line_rows(key)
        self.complete.append(key)
        return self._op(
            "lines", Update.insert("Lineitem", self.attrs["Lineitem"], rows)
        )

    def delete_orders(self, target_rows: int) -> Op:
        """One transaction deleting whole orders, at least ``target_rows`` rows."""
        order_rows: List[tuple] = []
        line_rows: List[tuple] = []
        while len(order_rows) + len(line_rows) < target_rows:
            complete = self.complete
            index = self.rng.randrange(len(complete))
            complete[index], complete[-1] = complete[-1], complete[index]
            key = complete.pop()
            order_rows.append(self.orders.pop(key))
            line_rows.extend(self.lines.pop(key))
        update = Update.of(
            Delta("Lineitem", deletes=Relation(self.attrs["Lineitem"], line_rows)),
            Delta("Orders", deletes=Relation(self.attrs["Orders"], order_rows)),
        )
        return self._op("delete", update)

    def _restatus(self, key: int) -> Tuple[tuple, tuple]:
        old = self.orders[key]
        status = self.rng.choice([s for s in STATUSES if s != old[2]])
        new = (old[0], old[1], status, old[3])
        self.orders[key] = new
        return old, new

    def modify_status(self) -> Op:
        key = self.complete[self.rng.randrange(len(self.complete))]
        old, new = self._restatus(key)
        return self._op(
            "modify", Update.modify("Orders", self.attrs["Orders"], [old], [new])
        )

    def _dimension_row(self, name: str) -> tuple:
        rng = self.rng
        key = self.next_dim[name]
        self.next_dim[name] += 1
        if name == "Customer":
            nation = rng.choice(self.dim_keys["Nation"])
            return (key, f"CUST_{key}", nation, rng.choice(SEGMENTS))
        if name == "Supplier":
            return (key, f"SUPP_{key}", rng.choice(self.dim_keys["Nation"]))
        if name == "Part":
            return (key, f"PART_{key}", f"BRAND_{rng.randrange(5)}")
        if name == "Nation":
            return (key, f"NATION_{key}", rng.choice(self.dim_keys["Region"]))
        return (key, f"REGION_{key}")

    def churn(self, names: Sequence[str]) -> Op:
        """Insert a dimension row nothing references, or delete one such row.

        Turns rotate over ``names`` and alternate insert/delete per relation,
        so each dimension stays within one row of its initial size.
        """
        names = tuple(names)
        turn = self._churn_turns.get(names, 0)
        self._churn_turns[names] = turn + 1
        name = names[turn % len(names)]
        attrs = self.attrs[name]
        if (turn // len(names)) % 2 == 0:
            row = self._dimension_row(name)
            self.churned[name].append(row)
            return self._op("churn", Update.insert(name, attrs, [row]))
        row = self.churned[name].pop(0)
        return self._op("churn", Update.delete(name, attrs, [row]))

    # -- streams ---------------------------------------------------------

    def _emit(self, kind: str, composition: Mapping[str, int]) -> Op:
        if kind == "order":
            return self.insert_order()
        if kind == "lines":
            return self.insert_lines()
        if kind == "delete":
            inserted = composition["order"] + 2 * composition["lines"]
            return self.delete_orders(inserted // composition["delete"])
        if kind == "modify":
            return self.modify_status()
        if kind == "crm":
            return self.churn(SOURCES["CRM"])
        if kind == "ref":
            return self.churn(SOURCES["RefDB"])
        return self.churn(("Customer", "Supplier", "Part"))

    def shapes(self, composition: Mapping[str, int]) -> List[Op]:
        """One notification of every update shape, for the set-up phase.

        Churn runs two full rotations, so each churned relation sees its
        first insert and its first delete before timing starts.
        """
        ops = [self._emit(kind, composition) for kind in composition if kind
               not in ("churn", "crm", "ref")]
        for kind, names in (
            ("churn", ("Customer", "Supplier", "Part")),
            ("crm", SOURCES["CRM"]),
            ("ref", SOURCES["RefDB"]),
        ):
            if kind in composition:
                ops.extend(self._emit(kind, composition) for _ in range(2 * len(names)))
        return ops

    def notifications(self, count: int, composition: Mapping[str, int]) -> List[Op]:
        """``count`` single-notification ops in blocks of the given composition."""
        ops: List[Op] = []
        while len(ops) < count:
            kinds = [kind for kind, n in composition.items() for _ in range(n)]
            self.rng.shuffle(kinds)
            while kinds:
                kind = kinds.pop(0)
                if kind == "lines" and not self.pending:
                    kinds.append(kind)  # its order comes later in the block
                    continue
                ops.append(self._emit(kind, composition))
        return ops[:count]

    def bulk_insert(self, orders_per_batch: int, notifications: int) -> Op:
        """Report a batch of new orders, chunk by chunk: orders, then lineitems."""
        chunks = notifications // 2
        per_chunk = orders_per_batch // chunks
        batch: List[int] = []
        updates: List[Update] = []
        for _ in range(chunks):
            rows = [self._new_order_row() for _ in range(per_chunk)]
            keys = [row[0] for row in rows]
            batch.extend(keys)
            updates.append(Update.insert("Orders", self.attrs["Orders"], rows))
            lines = [line for key in keys for line in self._new_line_rows(key)]
            updates.append(Update.insert("Lineitem", self.attrs["Lineitem"], lines))
        self.batches.append(batch)
        return Op("bulk_insert", tuple(updates), 3 * len(batch), "OrdersDB")

    def bulk_modify(self, notifications: int) -> Op:
        """Flip the status of half of the newest batch's orders."""
        newest = self.batches[-1]
        victims = self.rng.sample(newest, len(newest) // 2)
        updates = []
        for part in range(notifications):
            pairs = [self._restatus(key) for key in victims[part::notifications]]
            updates.append(
                Update.modify(
                    "Orders", self.attrs["Orders"],
                    [old for old, _ in pairs], [new for _, new in pairs],
                )
            )
        return Op("bulk_modify", tuple(updates), 2 * len(victims), "OrdersDB")

    def bulk_delete(self, notifications: int) -> Op:
        """Delete the oldest batch alive, each chunk's lineitems before its orders."""
        oldest = self.batches.pop(0)
        chunks = notifications // 2
        per_chunk = len(oldest) // chunks
        updates = []
        for chunk in range(chunks):
            keys = oldest[chunk * per_chunk:(chunk + 1) * per_chunk]
            lines = [line for key in keys for line in self.lines.pop(key)]
            updates.append(Update.delete("Lineitem", self.attrs["Lineitem"], lines))
            rows = [self.orders.pop(key) for key in keys]
            updates.append(Update.delete("Orders", self.attrs["Orders"], rows))
        return Op("bulk_delete", tuple(updates), 3 * len(oldest), "OrdersDB")

    def bulk(
        self, ops: int, orders_per_batch: int, notifications: int = 40
    ) -> Tuple[List[Op], List[Op]]:
        """``(warm-up, timed)`` lists of ``apply_batch`` ops for ``refresh_bulk``.

        The timed list cycles *insert a batch → modify half of it → delete
        the oldest batch alive*, so after every cycle the database is back at
        its size. The warm-up (insert, modify, insert, delete) puts the
        first refresh of every shape outside the timed list and leaves the
        one batch alive that the first timed delete removes. ``ops`` is
        rounded up to whole cycles; ``orders_per_batch`` must be a multiple
        of ``notifications // 2``.
        """
        n = notifications
        warm = [
            self.bulk_insert(orders_per_batch, n), self.bulk_modify(n),
            self.bulk_insert(orders_per_batch, n), self.bulk_delete(n),
        ]
        timed: List[Op] = []
        while len(timed) < ops:
            timed += [
                self.bulk_insert(orders_per_batch, n), self.bulk_modify(n),
                self.bulk_delete(n),
            ]
        return warm, timed

    # -- queries ---------------------------------------------------------

    def queries(self, count: int) -> List[Query]:
        """``count`` queries: exact class shares and hot/fresh split per block."""
        mix = QueryMix(self)
        out: List[Query] = []
        while len(out) < count:
            out.extend(mix.block())
        return out[:count]

    def first_queries(self) -> List[Query]:
        """One query per template (the set-up phase's first answers)."""
        mix = QueryMix(self)
        return [mix.make(template, fresh=False) for template in QUERY_TEMPLATES]


#: template -> (class, text, queries per block of 20). Cheap classes (point,
#: join, union) are 14 of 20; factjoin is the costliest and holds the top
#: fifth, so the 95th percentile falls well inside one class, not between two.
QUERY_TEMPLATES: Dict[str, Tuple[str, str, int]] = {
    "point_order": ("point", "sigma[orderkey = {order}](Orders)", 3),
    "point_customer": ("point", "sigma[custkey = {customer}](Customer)", 3),
    "join_lineitem_orders": (
        "join", "sigma[orderkey = {order}](Lineitem) join Orders", 3),
    "join_orders_customer": (
        "join", "sigma[custkey = {customer}](Orders) join Customer", 2),
    "union_orders": (
        "union",
        "sigma[orderkey = {order}](Orders) union sigma[orderkey = {order2}](Orders)",
        3,
    ),
    "factjoin": (
        "factjoin",
        "pi[orderkey, linenumber, price, mktsegment]"
        "(sigma[price > {price}](Lineitem) join Orders join Customer)",
        4,
    ),
    "antijoin": (
        "antijoin",
        "sigma[custkey < {customer_bound}](Customer) minus "
        "pi[custkey, cname, cnationkey, mktsegment](Customer join Orders)",
        1,
    ),
    "scan": ("scan", "sigma[price > {price}](Lineitem)", 1),
}
QUERY_CLASSES = ("point", "join", "union", "factjoin", "antijoin", "scan")
HOT_LITERALS = 32
HOT_PER_BLOCK = 14  # of 20: the share of queries that reuse a hot literal


class QueryMix:
    """Literal choice for the templates: a hot set of 32, or a fresh draw."""

    def __init__(self, generator: StreamGenerator) -> None:
        self.rng = random.Random(generator.rng.random())
        self.n_orders = generator.sizes["Orders"]
        self.n_customers = generator.sizes["Customer"]
        self.hot = {
            template: [self._literals() for _ in range(HOT_LITERALS)]
            for template in QUERY_TEMPLATES
        }

    def _literals(self) -> Dict[str, int]:
        rng = self.rng
        return {
            "order": rng.randrange(self.n_orders),
            "order2": rng.randrange(self.n_orders),
            "customer": rng.randrange(self.n_customers),
            # Narrow bands at the unselective end: the scan and fact-join
            # templates then cost about the same whatever the literal, so the
            # upper percentiles do not depend on which literals a seed drew.
            "customer_bound": rng.randrange(self.n_customers * 9 // 10, self.n_customers),
            "price": rng.randrange(1_000, 5_000),
        }

    def make(self, template: str, fresh: bool) -> Query:
        klass, text, _ = QUERY_TEMPLATES[template]
        literals = self._literals() if fresh else self.rng.choice(self.hot[template])
        return Query(text.format(**literals), template, klass, fresh)

    def block(self) -> List[Query]:
        templates = [t for t, (_, _, n) in QUERY_TEMPLATES.items() for _ in range(n)]
        fresh = [False] * HOT_PER_BLOCK + [True] * (len(templates) - HOT_PER_BLOCK)
        self.rng.shuffle(templates)
        self.rng.shuffle(fresh)
        return [self.make(t, f) for t, f in zip(templates, fresh)]


# ----------------------------------------------------------------------
# Shadow state and the stream self-check
# ----------------------------------------------------------------------


def apply_to_shadow(shadow: Dict[str, Relation], ops: Sequence[Op]) -> None:
    """Fold every reported update of ``ops`` into the suite's copy of the source state."""
    for op in ops:
        for update in op.updates:
            for delta in update:
                shadow[delta.relation] = delta.apply_to(shadow[delta.relation])


def self_check(
    instance: TPCDInstance,
    warmup: Sequence[Op],
    ops: Sequence[Op],
    tolerance: float = 0.05,
) -> int:
    """Replay a stream through ``Database.apply`` with constraint checking on.

    Raises on the first constraint violation, on a notification that is not
    already in effective form, and when the timed ``ops`` end outside
    ``±tolerance`` of the row count they started from (the count after
    ``warmup``). Returns the final row count. This re-checks every
    constraint per notification, so it is a test of the generator, not
    something a timed run calls.
    """
    database = Database(instance.catalog, instance.database.state())
    start = 0
    for number, op in enumerate([*warmup, *ops]):
        if number == len(warmup):
            start = database.total_rows()
        for update in op.updates:
            effective = database.apply(update, check=True)
            reported = sum(len(d.inserts) + len(d.deletes) for d in update)
            folded = sum(len(d.inserts) + len(d.deletes) for d in effective)
            if reported != folded:
                raise AssertionError(
                    f"op {number} ({op.kind}) reports {reported} rows but "
                    f"only {folded} are effective"
                )
    end = database.total_rows()
    if abs(end - start) > tolerance * start:
        raise AssertionError(
            f"stream is not size-stationary: {start} rows before, {end} after"
        )
    return end
