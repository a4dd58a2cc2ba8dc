"""Persistence: JSON snapshots of catalogs, specs, and warehouse states.

Expressions and conditions serialize through their textual form (the
parser/printer round-trip is property-tested), so snapshots are small,
diff-able, and human-readable. A warehouse snapshot carries everything
needed to resume operation — catalog, view definitions, complement
definitions, inverses, and the materialized relations — so a warehouse can
be shut down and restarted without touching the sources (independence
extends across restarts).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping

from repro.errors import SchemaError
from repro.algebra.parser import parse, parse_condition
from repro.schema.catalog import Catalog
from repro.schema.schema import RelationSchema
from repro.storage.relation import Relation

FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------


def catalog_to_dict(catalog: Catalog) -> Dict[str, Any]:
    """A JSON-ready description of a catalog."""
    return {
        "version": FORMAT_VERSION,
        "relations": [
            {
                "name": schema.name,
                "attributes": list(schema.attributes),
                "key": list(schema.key) if schema.key is not None else None,
            }
            for schema in catalog.schemas()
        ],
        "inclusions": [
            {
                "lhs": ind.lhs,
                "lhs_attributes": list(ind.lhs_attributes),
                "rhs": ind.rhs,
                "rhs_attributes": list(ind.rhs_attributes),
            }
            for ind in catalog.inclusions()
        ],
        "checks": {
            schema.name: [str(check) for check in catalog.checks(schema.name)]
            for schema in catalog.schemas()
            if catalog.checks(schema.name)
        },
    }


def catalog_from_dict(data: Mapping[str, Any]) -> Catalog:
    """Rebuild a catalog from :func:`catalog_to_dict` output."""
    catalog = Catalog()
    for entry in data["relations"]:
        catalog.add_relation(
            RelationSchema(entry["name"], entry["attributes"], key=entry.get("key"))
        )
    for entry in data.get("inclusions", ()):
        catalog.inclusion(
            entry["lhs"],
            entry["lhs_attributes"],
            entry["rhs"],
            entry["rhs_attributes"],
        )
    for relation, checks in data.get("checks", {}).items():
        for text in checks:
            catalog.add_check(relation, parse_condition(text))
    return catalog


# ----------------------------------------------------------------------
# Relations / states
# ----------------------------------------------------------------------


def relation_to_dict(relation: Relation) -> Dict[str, Any]:
    """A JSON-ready relation (rows sorted for stable diffs)."""
    return {
        "attributes": list(relation.attributes),
        "rows": [list(row) for row in sorted(relation.rows, key=repr)],
    }


def relation_from_dict(data: Mapping[str, Any]) -> Relation:
    """Rebuild a relation from :func:`relation_to_dict` output.

    JSON has no tuples; row values survive as strings/numbers/bools/None,
    which covers every value the library's generators and examples use.
    """
    return Relation(
        tuple(data["attributes"]), [tuple(row) for row in data["rows"]]
    )


def state_to_dict(state: Mapping[str, Relation]) -> Dict[str, Any]:
    """A JSON-ready state (name -> relation)."""
    return {name: relation_to_dict(rel) for name, rel in state.items()}


def state_from_dict(data: Mapping[str, Any]) -> Dict[str, Relation]:
    """Rebuild a state from :func:`state_to_dict` output."""
    return {name: relation_from_dict(entry) for name, entry in data.items()}


# ----------------------------------------------------------------------
# Warehouse specs and whole warehouses
# ----------------------------------------------------------------------


def spec_to_dict(spec) -> Dict[str, Any]:
    """A JSON-ready warehouse specification."""
    return {
        "version": FORMAT_VERSION,
        "method": spec.method,
        "catalog": catalog_to_dict(spec.catalog),
        "views": [
            {"name": view.name, "definition": str(view.definition)}
            for view in spec.views
        ],
        "complements": [
            {
                "name": complement.name,
                "relation": complement.relation,
                "definition": str(complement.definition),
                "provably_empty": complement.provably_empty,
            }
            for complement in spec.complements.values()
        ],
        "inverses": {
            relation: str(expression)
            for relation, expression in spec.inverses.items()
        },
    }


def spec_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`~repro.core.complement.WarehouseSpec`."""
    from repro.core.complement import ComplementView, WarehouseSpec
    from repro.views.psj import View

    catalog = catalog_from_dict(data["catalog"])
    views = [View(v["name"], parse(v["definition"])) for v in data["views"]]
    complements = {
        c["relation"]: ComplementView(
            c["name"], c["relation"], parse(c["definition"]), c["provably_empty"]
        )
        for c in data["complements"]
    }
    inverses = {
        relation: parse(text) for relation, text in data["inverses"].items()
    }
    return WarehouseSpec(catalog, views, complements, inverses, data["method"])


def warehouse_to_dict(warehouse) -> Dict[str, Any]:
    """Snapshot a (possibly initialized) warehouse."""
    snapshot: Dict[str, Any] = {"spec": spec_to_dict(warehouse.spec)}
    try:
        state = warehouse.state
    except Exception:
        state = None
    if state is not None:
        snapshot["state"] = state_to_dict(state)
    return snapshot


def warehouse_from_dict(data: Mapping[str, Any]):
    """Rebuild a :class:`~repro.core.warehouse.Warehouse` from a snapshot."""
    from repro.core.warehouse import Warehouse

    warehouse = Warehouse(spec_from_dict(data["spec"]))
    if "state" in data:
        warehouse._commit(state_from_dict(data["state"]))
    return warehouse


def save_warehouse(warehouse, path: str) -> None:
    """Write a warehouse snapshot to a JSON file."""
    with open(path, "w") as handle:
        json.dump(warehouse_to_dict(warehouse), handle, indent=1, sort_keys=True)


def load_warehouse(path: str):
    """Load a warehouse snapshot written by :func:`save_warehouse`."""
    with open(path) as handle:
        data = json.load(handle)
    if data.get("spec", {}).get("version") not in (FORMAT_VERSION,):
        raise SchemaError(
            f"unsupported snapshot version in {path!r}; expected {FORMAT_VERSION}"
        )
    return warehouse_from_dict(data)
