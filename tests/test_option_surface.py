"""The option ledger, derived from the code.

Every independently settable value doubles the configurations the tests
and the benchmark suite must cover, so the ledger is pinned: a knob added
to a constructor, to ``evaluate`` / ``answer_query``, or as a new
``REPRO_*`` variable fails here until the ledger — and the reason two
callers need different values — is written down.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import Catalog, Relation, View, Warehouse, WarehouseError, evaluate, parse
from repro.analysis import dataflow
from repro.core.sharding import ShardedWarehouse, ShardRouting
from repro.core.translation import answer_query
from repro.storage import engine

#: Defaulted parameters that carry data or collect results, not behaviour:
#: the shard layout, the caller's memo, the caller's counters.
NOT_OPTIONS = {"router", "shards", "cache", "stats"}

PARAMETERS = {"engine", "fastpath", "tracer"}
VARIABLES = {"REPRO_ENGINE", "REPRO_CHECK_INVARIANTS"}


def defaulted(function) -> set:
    parameters = inspect.signature(function).parameters.values()
    return {
        p.name
        for p in parameters
        if p.default is not p.empty and p.name not in NOT_OPTIONS
    }


def test_keyword_options_are_the_ledgers_three():
    surfaces = (Warehouse.__init__, ShardedWarehouse.__init__, evaluate, answer_query)
    assert set().union(*map(defaulted, surfaces)) == PARAMETERS


def test_environment_variables_are_the_ledgers_two():
    declared = {
        value for name, value in vars(engine).items() if name.endswith("_ENV")
    }
    assert declared == VARIABLES
    # ... and no module names a variable the leaf module does not declare.
    named = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        named.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    assert named == VARIABLES


def test_specify_adds_the_complement_method_and_one_frozen_keyword():
    # ``method`` picks the complement construction (a specification input);
    # ``compile_plans`` is accepted and ignored — the frozen benchmark
    # suite's ``variant.compiled`` row passes it.
    added = defaulted(Warehouse.specify) - defaulted(Warehouse.__init__)
    assert added == {"method", "compile_plans"}
    assert defaulted(ShardedWarehouse.specify) - defaulted(
        ShardedWarehouse.__init__
    ) == {"routings", "method"}


@pytest.mark.parametrize("armed", [True, False], ids=["armed", "unset"])
def test_one_switch_arms_every_seam(armed, monkeypatch, poison_plan):
    # REPRO_CHECK_INVARIANTS alone arms the refresh read-set check, the
    # answer read-set check and the key check of a thm22 spec's shards;
    # unset, none fires.
    if armed:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    else:
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
    refresh_checks = []
    real_check = dataflow.check_refresh_reads

    def counting_check(*args):
        refresh_checks.append(args)
        real_check(*args)

    monkeypatch.setattr(dataflow, "check_refresh_reads", counting_check)
    catalog = Catalog()
    catalog.relation("Sale", ("item", "clerk"))
    catalog.relation("Emp", ("clerk", "age"), key=("clerk",))
    warehouse = ShardedWarehouse.specify(
        catalog,
        [View("Sold", parse("Sale join Emp"))],
        routings=[ShardRouting("Sale", "item", shards=4)],
    )
    warehouse.initialize({
        "Sale": Relation(("item", "clerk"), [("TV", "Mary")]),
        "Emp": Relation(("clerk", "age"), [("Mary", 23), ("Ann", 31)]),
    })
    warehouse.insert("Sale", [("Radio", "Ann")])
    assert bool(refresh_checks) == armed
    poison_plan(warehouse.spec, "Emp", "pi[clerk](C_Sale)")
    if armed:
        with pytest.raises(WarehouseError, match="query sanitizer"):
            warehouse.answer("Emp")
    else:
        warehouse.answer("Emp")
    # Mary is already employed: the insert breaks Emp's key.
    if armed:
        with pytest.raises(WarehouseError, match="key sanitizer"):
            warehouse.insert("Emp", [("Mary", 99)])
    else:
        warehouse.insert("Emp", [("Mary", 99)])
