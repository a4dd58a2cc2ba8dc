"""Fused per-update-shape maintenance plans: what a refresh interprets.

Starting from the symbolic derivation of Example 4.1
(:func:`repro.core.maintenance.maintenance_expressions` — delta rules plus
Equation (4) inverse substitution), each maintenance expression is run
through :func:`repro.algebra.optimize.fuse_chains`: select/select and
project/project chains collapse into single nodes, TRUE/FALSE selections
fold, and the empty relation propagates through every operator. The result
classifies each warehouse relation's program:

* ``pruned``  — both delta expressions folded to ``Empty``: this update
  shape provably cannot touch the relation, and the refresh carries
  the relation over by identity without evaluating anything;
* ``patch``   — both delta expressions are bare leaves (a delta-relation
  reference or ``Empty``): the refresh is a pure warehouse-local patch —
  ``w' = (w − R__del) ∪ R__ins`` — with no algebra to run at all (the
  complement relations of Example 4.1 take this form);
* ``fused``   — anything else: a chain-fused expression for the
  interpreter (:func:`repro.core.maintenance.refresh_state`) to evaluate.

Plans are specialized per *side mask* as well as per relation set: a pure
insertion (or pure deletion) folds the unused ``R__del`` / ``R__ins``
delta to the empty relation *before* fusing, so whole branches of the
derivation prune away at derivation time — the compact forms of Example
4.1, derived once per shape instead of being rediscovered per refresh.

On top of fusion, two **value-reuse** rewrites spend the Equation (4)
identity ``W ∘ W⁻¹ = id`` (which holds for every spec that carries a
complement — the same trust ``fold_occurrences`` places in it inside the
derivation):

* an *old-value* subterm — a warehouse relation's definition recomputed
  over the reconstructed sources — collapses to a reference to the stored
  relation itself;
* a *new-value* subterm — the definition recomputed over the *updated*
  reconstruction — collapses to a reference to the relation's
  already-patched value (``<name>__new``), which orders the relation
  programs topologically (cycles revert to the inline expression).

These rewrites are what keep maintenance incremental: without them,
complement programs re-join the entire fact table on every refresh.

The classification is driven entirely by statically derived expressions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Tuple

from repro.algebra.deltas import del_name, delta_scope, ins_name
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Project,
    RelationRef,
    Scope,
    Union,
)
from repro.algebra.optimize import fuse_chains
from repro.algebra.rewriting import substitute
from repro.algebra.simplify import simplify
from repro.core.complement import WarehouseSpec
from repro.core.maintenance import maintenance_expressions

#: Suffix naming a warehouse relation's post-patch value inside a plan.
NEW_SUFFIX = "__new"


def new_value_name(relation: str) -> str:
    """The plan-local name binding ``relation``'s already-patched value."""
    return relation + NEW_SUFFIX


class RelationProgram(NamedTuple):
    """One warehouse relation's fused maintenance program."""

    name: str
    kind: str  # "pruned" | "patch" | "fused"
    inserts: Expression
    deletes: Expression

    def describe(self) -> str:
        """One human-readable line (the CLI's ``--explain`` rendering)."""
        if self.kind == "pruned":
            return f"{self.name}: pruned (update cannot touch it)"
        if self.kind == "patch":
            return (
                f"{self.name}: patch  "
                f"+[{self.inserts}] -[{self.deletes}]"
            )
        return f"{self.name}: fused  +[{self.inserts}] -[{self.deletes}]"


class FusedPlan(NamedTuple):
    """The fused maintenance plan for one set of updated base relations.

    ``scope`` is the extended schema (sources + warehouse + delta +
    ``__new`` names) the programs are typed under; ``delta_names`` the
    ``R__ins``/``R__del`` bindings this shape introduces. ``relations``
    is in **evaluation order**: a program may reference an earlier
    relation's post-patch value as ``<name>__new``, never a later one.
    ``mode`` is the side mask the plan was specialized for (``"mixed"``,
    ``"insert-only"`` or ``"delete-only"``).
    """

    updated: FrozenSet[str]
    scope: Scope
    delta_names: FrozenSet[str]
    relations: Tuple[RelationProgram, ...]
    mode: str = "mixed"

    def program_for(self, name: str) -> RelationProgram:
        """The program of one warehouse relation (raises ``KeyError``)."""
        for program in self.relations:
            if program.name == name:
                return program
        raise KeyError(name)

    def describe(self) -> str:
        """Human-readable plan, one line per warehouse relation."""
        lines = [f"updated: {sorted(self.updated)}  mode: {self.mode}"]
        lines.extend("  " + program.describe() for program in self.relations)
        return "\n".join(lines)


def _is_leaf(expression: Expression) -> bool:
    return isinstance(expression, (Empty, RelationRef))


def _kind(inserts: Expression, deletes: Expression) -> str:
    if isinstance(inserts, Empty) and isinstance(deletes, Empty):
        return "pruned"
    if _is_leaf(inserts) and _is_leaf(deletes):
        return "patch"
    return "fused"


def _reconstruction(
    spec: WarehouseSpec,
    updated: FrozenSet[str],
    insert_only: bool,
    delete_only: bool,
) -> Dict[str, Expression]:
    """Post-update source reconstructions, matching the derived shapes.

    For an untouched source this is the plain Equation (4) inverse; for a
    touched one the inverse patched with exactly the delta sides this
    mode keeps — built the same way :func:`maintenance_expressions`
    builds them, so the keys line up structurally with the derivation's
    subterms.
    """
    recon: Dict[str, Expression] = {}
    for relation, inverse in spec.inverses.items():
        expression = inverse
        if relation in updated:
            if not insert_only:
                expression = Difference(
                    expression, RelationRef(del_name(relation))
                )
            if not delete_only:
                expression = Union(expression, RelationRef(ins_name(relation)))
        recon[relation] = expression
    return recon


class _ValueMaps(NamedTuple):
    """Structural keys of every warehouse relation's old and new value.

    ``old_*`` maps key the definition recomputed over the *current*
    reconstruction (Equation 4: extensionally the stored relation
    itself); ``new_*`` maps key it over the *patched* reconstruction
    (extensionally the relation's post-refresh value). The ``*_core``
    variants strip an outermost projection so ``pi_A(X)`` can reuse a
    value whose projection attrs are a superset of ``A``.
    """

    old_full: Dict[tuple, str]
    old_core: Dict[tuple, Tuple[str, FrozenSet[str]]]
    new_full: Dict[tuple, str]
    new_core: Dict[tuple, Tuple[str, FrozenSet[str]]]


def _value_maps(
    spec: WarehouseSpec,
    updated: FrozenSet[str],
    scope: Scope,
    insert_only: bool,
    delete_only: bool,
) -> _ValueMaps:
    recon = _reconstruction(spec, updated, insert_only, delete_only)
    maps = _ValueMaps({}, {}, {}, {})
    for name, definition in spec.definitions_over_sources().items():
        old = fuse_chains(
            simplify(substitute(definition, spec.inverses), scope), scope
        )
        old_key = old._key()
        if not _is_leaf(old):
            maps.old_full.setdefault(old_key, name)
            if isinstance(old, Project):
                maps.old_core.setdefault(
                    old.child._key(), (name, frozenset(old.attrs))
                )
        new = fuse_chains(simplify(substitute(definition, recon), scope), scope)
        if new._key() != old_key and not _is_leaf(new):
            maps.new_full.setdefault(new._key(), name)
            if isinstance(new, Project):
                maps.new_core.setdefault(
                    new.child._key(), (name, frozenset(new.attrs))
                )
    return maps


def _reuse_values(
    expression: Expression, maps: _ValueMaps, exclude: str
) -> Expression:
    """Top-down rewrite replacing recomputed values with references.

    A subterm keying as some relation's new value becomes
    ``RelationRef(<name>__new)``; one keying as an old value becomes a
    plain ``RelationRef(<name>)``. The rewrite only ever *adds* sharing:
    a failed key match leaves the subterm alone, so plans stay correct
    (just slower) whenever the derivation produced an unexpected shape.
    ``exclude`` bars a relation's own new value inside its own program —
    that value does not exist until the program has run.
    """
    key = expression._key()
    name = maps.new_full.get(key)
    if name is not None and name != exclude:
        return RelationRef(new_value_name(name))
    name = maps.old_full.get(key)
    if name is not None:
        return RelationRef(name)
    if isinstance(expression, Project):
        child_key = expression.child._key()
        attrs = set(expression.attrs)
        entry = maps.new_core.get(child_key)
        if entry is not None and entry[0] != exclude and attrs <= entry[1]:
            return Project(RelationRef(new_value_name(entry[0])), expression.attrs)
        entry = maps.old_core.get(child_key)
        if entry is not None and attrs <= entry[1]:
            return Project(RelationRef(entry[0]), expression.attrs)
    children = tuple(
        _reuse_values(child, maps, exclude) for child in expression.children()
    )
    if children != expression.children():
        expression = expression.with_children(children)
    return expression


def _new_value_deps(expressions: Iterable[Expression]) -> FrozenSet[str]:
    """Warehouse relations whose ``__new`` value the expressions read."""
    deps = set()
    stack = list(expressions)
    while stack:
        node = stack.pop()
        if isinstance(node, RelationRef) and node.name.endswith(NEW_SUFFIX):
            deps.add(node.name[: -len(NEW_SUFFIX)])
        stack.extend(node.children())
    return frozenset(deps)


def fused_plan(
    spec: WarehouseSpec,
    updated: Iterable[str],
    insert_only: bool = False,
    delete_only: bool = False,
    reuse_values: bool = True,
) -> FusedPlan:
    """Derive and chain-fuse the maintenance plan for an update shape.

    ``insert_only`` / ``delete_only`` specialize the plan to a delta side
    mask (the unused side folds to ``Empty`` before fusion — Example
    4.1's compact forms); ``reuse_values`` enables the Equation (4)
    old/new value-reuse rewrites documented in the module docstring.
    """
    if insert_only and delete_only:
        raise ValueError("insert_only and delete_only are mutually exclusive")
    plan = maintenance_expressions(
        spec, updated, insert_only=insert_only, delete_only=delete_only
    )
    base_scope: Scope = delta_scope(
        {**spec.source_scope(), **spec.warehouse_scope()}, plan.updated
    )
    warehouse_scope = spec.warehouse_scope()
    scope: Scope = {
        **base_scope,
        **{
            new_value_name(name): tuple(warehouse_scope[name])
            for name in plan.expressions
        },
    }
    delta_names = frozenset(
        name
        for relation in plan.updated
        for name in (ins_name(relation), del_name(relation))
    )
    raw: Dict[str, Tuple[Expression, Expression]] = {}
    rewritten: Dict[str, Tuple[Expression, Expression]] = {}
    maps = (
        _value_maps(spec, plan.updated, base_scope, insert_only, delete_only)
        if reuse_values
        else None
    )
    for name, exprs in plan.expressions.items():
        inserts = fuse_chains(exprs.inserts, base_scope)
        deletes = fuse_chains(exprs.deletes, base_scope)
        raw[name] = (inserts, deletes)
        if maps is not None:
            inserts = _reuse_values(inserts, maps, name)
            deletes = _reuse_values(deletes, maps, name)
        rewritten[name] = (inserts, deletes)

    # Kahn ordering on __new references; a cycle reverts every relation
    # still in it to its inline (unrewritten) expressions, after which
    # those relations depend on nothing and any order is valid.
    deps = {name: _new_value_deps(rewritten[name]) for name in rewritten}
    order: List[str] = []
    placed: set = set()
    remaining = list(plan.expressions)
    while remaining:
        ready = [name for name in remaining if deps[name] <= placed]
        if not ready:
            for name in remaining:
                rewritten[name] = raw[name]
                deps[name] = frozenset()
            continue
        for name in ready:
            order.append(name)
            placed.add(name)
        remaining = [name for name in remaining if name not in placed]

    programs = []
    for name in order:
        inserts, deletes = rewritten[name]
        programs.append(
            RelationProgram(name, _kind(inserts, deletes), inserts, deletes)
        )
    mode = (
        "insert-only" if insert_only else "delete-only" if delete_only else "mixed"
    )
    return FusedPlan(plan.updated, scope, delta_names, tuple(programs), mode)

