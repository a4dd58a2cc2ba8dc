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

import repro
from repro import Warehouse, evaluate
from repro.core.sharding import ShardedWarehouse
from repro.core.translation import answer_query
from repro.storage import engine

#: Defaulted parameters that carry data or collect results, not behaviour:
#: the shard layout, the caller's memo, the caller's counters.
NOT_OPTIONS = {"router", "shards", "cache", "stats"}

PARAMETERS = {"engine", "cached", "fastpath", "tracer"}
VARIABLES = {
    "REPRO_ENGINE",
    "REPRO_CHECK_INVARIANTS",
    "REPRO_CHECK_QUERIES",
    "REPRO_CHECK_RACES",
}


def defaulted(function) -> set:
    parameters = inspect.signature(function).parameters.values()
    return {
        p.name
        for p in parameters
        if p.default is not p.empty and p.name not in NOT_OPTIONS
    }


def test_keyword_options_are_the_ledgers_four():
    surfaces = (Warehouse.__init__, ShardedWarehouse.__init__, evaluate, answer_query)
    assert set().union(*map(defaulted, surfaces)) == PARAMETERS


def test_environment_variables_are_the_ledgers_four():
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
