"""Evaluation of algebra expressions against a state.

A *state* is any mapping from relation names to
:class:`~repro.storage.relation.Relation` instances — a source database
snapshot, a warehouse state, or a mixed state that additionally binds delta
relations during incremental maintenance. Evaluation memoizes common
sub-expressions (structural identity) within one call, which matters because
inverse expressions (Equation (4) of the paper) share large sub-trees.

Beyond the per-call memo, two performance layers live here:

* an :class:`EvaluationCache` — a cross-update memo keyed by expression
  structure and validated against a :class:`StateVersion` (the exact
  relation instances each sub-expression read). Because relations are
  immutable, instance identity is a sound version check: a cached result is
  reusable under any state that binds the same objects for every relation
  the sub-expression references. The maintenance engine keeps unchanged
  relations *object-identical* across refreshes, so sub-trees untouched by
  an update return cached results and only delta-touched sub-trees
  re-evaluate;
* join *fast paths* — ``pi_Z(L join R)`` with ``Z`` inside one operand's
  schema evaluates as a semi-join (never materializing the wide join), and
  the complement shape ``R minus pi_{attr(R)}(R join S)`` of Proposition 2.2
  evaluates as a hash anti-join without computing the join at all.

:class:`EvalStats` counts what happened (nodes evaluated, cache hits and
misses, rows joined, fast-path uses); the warehouse runtime and the
benchmarks read it. It doubles as the hot-path facade of the metrics
layer: the warehouse folds each refresh's snapshot into its
:class:`~repro.obs.metrics.MetricsRegistry` under ``evaluator.*`` names.

For *per-operator* visibility, :func:`evaluate` additionally accepts a
:class:`~repro.obs.trace.Tracer`: every node actually computed gets a span
(``join``/``project``/``read``/...) annotated with row counts, index hits,
cross-update cache hits, and fast-path firings. Spans are opened at one
site (:func:`_eval`) through :func:`~repro.obs.trace.span_of`, so
``tracer=None`` (the default) allocates no span and reads no clock.

There is **one interpreter** for both physical engines — ``"tuple"``
(frozenset operators on ``Relation``) and ``"columnar"`` (batch kernels on
:class:`~repro.storage.columnar.ColumnarTable`, late-materialized). They
differ only in the :class:`_Backend` record the walk consults; every
kernel is reached by method lookup on the operand, so both engines make
the same decisions in the same order by construction.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional
from typing import Sequence, Tuple, Union as TypingUnion

from repro.errors import EvaluationError
from repro.algebra.expressions import (
    Difference,
    Empty,
    Expression,
    Join,
    Project,
    RelationRef,
    Rename,
    Select,
    Union,
)
from repro.obs.trace import span_of
from repro.storage.engine import ENGINE_COLUMNAR, ENGINE_TUPLE, resolve_engine
from repro.storage.relation import Relation

State = Mapping[str, Relation]


class EvalStats:
    """Counters describing one (or several) evaluation passes.

    Attributes
    ----------
    nodes_evaluated:
        Expression nodes actually computed (memo and cache hits excluded).
    memo_hits:
        Per-call memo hits (shared sub-trees within one evaluation).
    cache_hits / cache_misses:
        Cross-update :class:`EvaluationCache` hits and misses.
    joins / rows_joined:
        Natural joins materialized and the total rows they produced.
    semijoin_fastpaths / antijoin_fastpaths:
        Uses of the ``pi``-over-join semi-join path and the complement-shape
        anti-join path.
    """

    __slots__ = (
        "nodes_evaluated",
        "memo_hits",
        "cache_hits",
        "cache_misses",
        "joins",
        "rows_joined",
        "semijoin_fastpaths",
        "antijoin_fastpaths",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero every counter."""
        self.nodes_evaluated = 0
        self.memo_hits = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.joins = 0
        self.rows_joined = 0
        self.semijoin_fastpaths = 0
        self.antijoin_fastpaths = 0

    def merge(self, other: "EvalStats") -> "EvalStats":
        """Add ``other``'s counters into this one (returns self)."""
        for field in self.__slots__:
            setattr(self, field, getattr(self, field) + getattr(other, field))
        return self

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict."""
        return {field: getattr(self, field) for field in self.__slots__}

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.snapshot().items() if v)
        return f"EvalStats({parts or 'all zero'})"


class StateVersion:
    """The exact relation instances a computation read, by name.

    Relations are immutable, so *instance identity* versions a binding: a
    result computed from ``{name: relation}`` bindings stays valid for any
    state that binds the very same objects. The maintenance engine keeps
    unchanged relations object-identical across refreshes precisely so these
    checks succeed.
    """

    __slots__ = ("_bindings",)

    def __init__(self, bindings: Mapping[str, Optional[Relation]]) -> None:
        self._bindings = dict(bindings)

    @classmethod
    def capture(cls, state: State, names: Optional[Iterable[str]] = None) -> "StateVersion":
        """Snapshot ``state``'s bindings for ``names`` (default: all names)."""
        if names is None:
            return cls(dict(state))
        return cls({name: state.get(name) for name in names})

    def matches(self, state: State) -> bool:
        """Whether ``state`` binds the same instance for every captured name."""
        get = state.get
        return all(get(name) is relation for name, relation in self._bindings.items())

    def names(self) -> FrozenSet[str]:
        """The captured relation names."""
        return frozenset(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __repr__(self) -> str:
        return f"StateVersion({sorted(self._bindings)})"


class EvaluationCache:
    """A cross-update memo: structural keys validated by :class:`StateVersion`.

    Unlike the plain per-call memo dict, an :class:`EvaluationCache` may be
    shared across evaluations over *different* states: each entry records
    which relation instances it was computed from, and is served only when
    the current state still binds those exact objects. Entries that fail
    validation are evicted lazily.

    The warehouse runtime keeps one instance for its whole life, so refresh
    N+1 reuses every sub-expression of refresh N whose inputs the update did
    not touch.
    """

    __slots__ = ("_entries", "_footprints")

    def __init__(self) -> None:
        self._entries: Dict[tuple, Tuple[Relation, StateVersion]] = {}
        # expression key -> referenced relation names, kept across evictions
        # so re-stores after an update skip the tree walk.
        self._footprints: Dict[tuple, FrozenSet[str]] = {}

    def lookup(self, key: tuple, state: State) -> Optional[Relation]:
        """The cached relation for ``key`` if still valid under ``state``."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        result, version = entry
        if version.matches(state):
            return result
        del self._entries[key]
        return None

    def store(
        self, key: tuple, state: State, expression: Expression, result: Relation
    ) -> None:
        """Record ``result`` for ``key``, versioned by its referenced names."""
        footprint = self._footprints.get(key)
        if footprint is None:
            footprint = expression.relation_names()
            self._footprints[key] = footprint
        self._entries[key] = (result, StateVersion.capture(state, footprint))

    def invalidate(self, names: Optional[Iterable[str]] = None) -> None:
        """Drop entries touching ``names`` (default: everything)."""
        if names is None:
            self._entries.clear()
            return
        doomed = frozenset(names)
        self._entries = {
            key: entry
            for key, entry in self._entries.items()
            if not (self._footprints.get(key, frozenset()) & doomed)
        }

    def clear(self) -> None:
        """Drop every entry (footprint memos survive; they are state-free)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"EvaluationCache({len(self._entries)} entries)"


Cache = TypingUnion[Dict[tuple, Relation], EvaluationCache]

_SCOPE_KEY = ("__scope__",)
_STATE_KEY = ("__state_version__",)


class _Backend(NamedTuple):
    """What differs between the physical engines; the walk shares the rest.

    ``Relation`` and ``ColumnarTable`` share every other operator name
    (``project``, ``union``, ``semi_join``, ...). ``tag`` prefixes memo and
    cache keys (``None``: the bare structural key), keeping the engines'
    entries apart in a shared cache; ``span_attributes`` go on every
    operator span, ``join_attributes(shared, *probed)`` on a join over
    the ``shared`` attributes that looks ``probed`` up by key; ``read``
    makes a bound relation a leaf operand, ``decode`` an operand a
    ``Relation`` at the public boundary.
    """

    tag: Optional[str]
    span_attributes: Mapping[str, object]
    read: Callable
    empty: Callable
    select: Callable
    join: Callable
    join_attributes: Callable
    decode: Callable


def _index_hit(shared: FrozenSet[str], *probed: Relation) -> Dict[str, object]:
    return {"index_hit": any(side.has_join_index(shared) for side in probed)}


def _empty_table(attrs: Sequence[str]):
    # Not importable at module level: repro.storage.columnar imports
    # repro.algebra.conditions, i.e. this package.
    from repro.storage.columnar import ColumnarTable

    return ColumnarTable.empty(attrs)


_BACKENDS = {
    ENGINE_TUPLE: _Backend(
        tag=None,
        span_attributes={},
        read=lambda relation: relation,
        empty=lambda attrs: Relation.empty(attrs),
        select=lambda child, cond: child.select(cond.compile(child.attributes)),
        join=lambda left, right: left.natural_join(right),
        join_attributes=_index_hit,
        decode=lambda relation: relation,
    ),
    # Leaves encode through Relation.columnar() (cached on the instance,
    # delta-patched across refreshes); to_relation() caches its result on
    # the table, so cross-update cache hits stay object-identical.
    ENGINE_COLUMNAR: _Backend(
        tag="@columnar",
        span_attributes={"engine": "columnar"},
        read=lambda relation: relation.columnar(),
        empty=_empty_table,
        select=lambda child, cond: child.select(cond),
        join=lambda left, right: left.join(right),
        join_attributes=lambda shared, *probed: {},
        decode=lambda table: table.to_relation(),
    ),
}


class _Context:
    """Per-call plumbing: backend, memo, optional cache, stats, flags."""

    __slots__ = ("backend", "state", "memo", "cache", "stats", "fastpath", "tracer")

    def __init__(
        self,
        state: State,
        cache: Optional[Cache],
        stats: Optional[EvalStats],
        fastpath: bool,
        tracer,
        engine: Optional[str],
    ) -> None:
        self.backend = _BACKENDS[resolve_engine(engine)]
        self.state = state
        if isinstance(cache, EvaluationCache):
            self.memo, self.cache = {}, cache
        else:
            self.memo, self.cache = ({} if cache is None else cache), None
            _check_memo_state(self.memo, state)
        self.stats = EvalStats() if stats is None else stats
        self.fastpath = fastpath
        self.tracer = tracer


def evaluate(
    expression: Expression,
    state: State,
    cache: Optional[Cache] = None,
    *,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
    engine: Optional[str] = None,
) -> Relation:
    """Evaluate ``expression`` over ``state`` and return the result relation.

    Parameters
    ----------
    expression:
        The expression to evaluate.
    state:
        Mapping from relation names to relation instances. All
        :class:`RelationRef` leaves must be bound here.
    cache:
        Optional memo. A plain ``dict`` is the classic per-state memo: pass
        the same dict across several :func:`evaluate` calls over the *same
        state* to share work. Reusing a dict after the state changed is a
        correctness hazard (it would silently return stale relations), so it
        raises :class:`~repro.errors.EvaluationError`. To share results
        *across* states pass an :class:`EvaluationCache` instead, which
        validates every entry against the current state. One cache object
        may serve both engines: columnar entries live under tagged keys.
    stats:
        Optional :class:`EvalStats` to increment (shared across calls).
    fastpath:
        Enable the semi-join / anti-join evaluation fast paths (on by
        default; the differential oracle turns it off for its reference
        tracks).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`. When given, every node
        actually computed opens a span annotated with operator kind and
        row counts; cross-update cache hits appear as zero-work spans with
        ``cached=True``. ``None`` (the default) disables tracing with no
        span allocated.
    engine:
        Physical execution engine: ``"tuple"`` (frozenset operators),
        ``"columnar"`` (batch kernels over dictionary-coded columns, see
        :mod:`repro.storage.columnar`), or ``None`` to follow the process
        default (the ``REPRO_ENGINE`` environment variable). Either way
        the result is an ordinary ``Relation``, and a bare
        :class:`RelationRef` returns the state's bound object itself.

    Examples
    --------
    >>> from repro.algebra import rel, join
    >>> sale = Relation(("item", "clerk"), [("TV", "Mary")])
    >>> emp = Relation(("clerk", "age"), [("Mary", 23)])
    >>> evaluate(join(rel("Sale"), rel("Emp")), {"Sale": sale, "Emp": emp}).to_set()
    frozenset({('TV', 'Mary', 23)})
    """
    ctx = _Context(state, cache, stats, fastpath, tracer, engine)
    return _materialize(expression, ctx)


def evaluate_all(
    expressions: Mapping[str, Expression],
    state: State,
    cache: Optional[Cache] = None,
    *,
    stats: Optional[EvalStats] = None,
    fastpath: bool = True,
    tracer=None,
    engine: Optional[str] = None,
) -> Dict[str, Relation]:
    """Evaluate several named expressions over one state, sharing the memo.

    Returns ``{name: result}`` in input order. ``cache``, ``stats``,
    ``fastpath``, ``tracer``, and ``engine`` behave as in :func:`evaluate`.
    """
    ctx = _Context(state, cache, stats, fastpath, tracer, engine)
    return {name: _materialize(expr, ctx) for name, expr in expressions.items()}


def _check_memo_state(memo: Dict[tuple, object], state: State) -> None:
    """Guard dict memos against reuse across states (satellite of PR #1).

    The first call stamps the memo with a :class:`StateVersion` of the full
    state; later calls verify it. A changed binding means every cached entry
    is suspect, so the only safe behavior is to fail loudly.
    """
    version = memo.get(_STATE_KEY)
    if version is None:
        memo[_STATE_KEY] = StateVersion.capture(state)
        return
    if not isinstance(version, StateVersion) or not version.matches(state):
        raise EvaluationError(
            "evaluation cache was populated against a different state; "
            "pass a fresh dict per state, or an EvaluationCache to share "
            "results across states safely"
        )


def _materialize(expr: Expression, ctx: _Context) -> Relation:
    """Evaluate, then decode at the API boundary.

    Identity contract: a bare :class:`RelationRef` returns the bound
    relation object itself under either engine, which is what keeps
    ``StateVersion`` checks and the warehouse's no-op detection working.
    """
    result = _eval(expr, ctx)
    if isinstance(expr, RelationRef):
        return ctx.state[expr.name]
    return ctx.backend.decode(result)


#: Span name per expression node type (tracing only).
_SPAN_NAMES = {
    RelationRef: "read",
    Empty: "empty",
    Project: "project",
    Select: "select",
    Join: "join",
    Union: "union",
    Difference: "difference",
    Rename: "rename",
}


def _memo_key(expr: Expression, ctx: _Context) -> tuple:
    tag = ctx.backend.tag
    return expr._key() if tag is None else (tag, expr._key())


def _eval(expr: Expression, ctx: _Context):
    """One node: memo lookup, cache lookup, compute, store.

    The one place an operator span is opened. Memo hits within one call
    are silent (they would dominate the trace); a cross-update cache hit
    is a zero-work span marked ``cached=True``. Every
    :class:`RelationRef` computed or served from the cache yields a
    ``read`` span carrying ``relation`` — what the
    ``REPRO_CHECK_INVARIANTS`` / ``REPRO_CHECK_QUERIES`` sanitizers
    cross-check against the static read sets.
    """
    key = _memo_key(expr, ctx)
    hit = ctx.memo.get(key)
    if hit is not None:
        ctx.stats.memo_hits += 1
        return hit
    cache = ctx.cache
    result = None
    if cache is not None:
        result = cache.lookup(key, ctx.state)
        if result is None:
            ctx.stats.cache_misses += 1
        else:
            ctx.stats.cache_hits += 1
    cached = result is not None
    with span_of(
        ctx.tracer, _SPAN_NAMES.get(type(expr), "node"), **ctx.backend.span_attributes
    ) as span:
        if cached:
            span.set(cached=True)
        else:
            result = _eval_node(expr, ctx)
        span.set(rows_out=len(result))
        if isinstance(expr, RelationRef):
            span.set(relation=expr.name)
    ctx.memo[key] = result
    if not cached:
        ctx.stats.nodes_evaluated += 1
        if cache is not None:
            cache.store(key, ctx.state, expr, result)
    return result


def _scope(ctx: _Context):
    scope = ctx.memo.get(_SCOPE_KEY)
    if scope is None:
        scope = {name: relation.attributes for name, relation in ctx.state.items()}
        ctx.memo[_SCOPE_KEY] = scope
    return scope


def _join_operands(expr: Join) -> Tuple[Expression, ...]:
    """The flattened operands of a (possibly nested) join tree."""
    parts = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Join):
            stack.extend((node.right, node.left))
        else:
            parts.append(node)
    return tuple(reversed(parts))


def semi_join_side(
    attrs: Sequence[str], left_schema: FrozenSet[str], right_schema: FrozenSet[str]
) -> Optional[int]:
    """Which operand of ``pi_attrs(L join R)`` the projection stays inside.

    ``0`` (L) or ``1`` (R) when ``attrs`` lies inside that operand's
    schema — the projection then equals ``pi_attrs`` of that operand
    semi-joined with the other, and the wide join is never materialized —
    else ``None``. The interpreter asks per evaluation, the plan compiler
    (:mod:`repro.compiler.runtime`) once per compiled shape.
    """
    target = frozenset(attrs)
    if target <= left_schema:
        return 0
    if target <= right_schema:
        return 1
    return None


def anti_join_partner(
    expr: Difference, left_schema: FrozenSet[str]
) -> Optional[Expression]:
    """``S`` when ``expr`` is Proposition 2.2's ``R - pi_{attr(R)}(R join S)``.

    That shape equals the hash anti-join ``R ▷ S``, computed without
    evaluating the join or the projection. Restricted to two-operand
    joins: with more operands, joining "the rest" could introduce a cross
    product the original tree order avoids. ``left_schema`` is ``attr(R)``.
    """
    right = expr.right
    if not (
        isinstance(right, Project)
        and isinstance(right.child, Join)
        and frozenset(right.attrs) == left_schema
    ):
        return None
    operands = _join_operands(right.child)
    if len(operands) == 2:
        left_key = expr.left._key()
        for index, operand in enumerate(operands):
            if operand._key() == left_key:
                return operands[1 - index]
    return None


def _eval_project(expr: Project, ctx: _Context):
    child = expr.child
    # Skipped when the join itself is already memoized (projecting it is
    # then cheaper than a semi-join).
    if (
        ctx.fastpath
        and isinstance(child, Join)
        and _memo_key(child, ctx) not in ctx.memo
    ):
        left = _eval(child.left, ctx)
        if not left:
            return ctx.backend.empty(expr.attrs)
        right = _eval(child.right, ctx)
        if not right:
            return ctx.backend.empty(expr.attrs)
        side = semi_join_side(expr.attrs, left.attribute_set, right.attribute_set)
        if side is not None:
            operands = (left, right)
            ctx.stats.semijoin_fastpaths += 1
            if ctx.tracer is not None:
                ctx.tracer.annotate(fastpath="semi_join")
            return operands[side].semi_join(operands[1 - side]).project(expr.attrs)
    # No fast path applies: a join child goes through _eval so its result
    # is memoized for other sub-trees that share it.
    return _eval(child, ctx).project(expr.attrs)


def _eval_difference(expr: Difference, ctx: _Context, left):
    if ctx.fastpath:
        partner = anti_join_partner(expr, left.attribute_set)
        if partner is not None and _memo_key(expr.right, ctx) not in ctx.memo:
            other = _eval(partner, ctx)
            ctx.stats.antijoin_fastpaths += 1
            if ctx.tracer is not None:
                ctx.tracer.annotate(
                    fastpath="anti_join",
                    **ctx.backend.join_attributes(
                        left.attribute_set & other.attribute_set, other
                    ),
                )
            return left.anti_join(other)
    return left.difference(_eval(expr.right, ctx))


def _eval_node(expr: Expression, ctx: _Context):
    backend = ctx.backend
    if isinstance(expr, RelationRef):
        relation = ctx.state.get(expr.name)
        if relation is None:
            raise EvaluationError(
                f"relation {expr.name!r} is not bound in the evaluation state "
                f"(bound: {sorted(ctx.state)})"
            )
        return backend.read(relation)

    if isinstance(expr, Empty):
        return backend.empty(expr.attrs)

    if isinstance(expr, Project):
        return _eval_project(expr, ctx)

    if isinstance(expr, Select):
        return backend.select(_eval(expr.child, ctx), expr.condition)

    if isinstance(expr, Join):
        # Empty short-circuit: if one side is empty, the join is empty and
        # the other side need not be evaluated (this is what makes the
        # delete-branch of maintenance expressions free on insert-only
        # updates — the delta relation binds to the empty set).
        left = _eval(expr.left, ctx)
        if not left:
            return backend.empty(expr.attributes(_scope(ctx)))
        right = _eval(expr.right, ctx)
        if not right:
            return backend.empty(expr.attributes(_scope(ctx)))
        if ctx.tracer is not None:
            ctx.tracer.annotate(
                rows_in_left=len(left),
                rows_in_right=len(right),
                **backend.join_attributes(
                    left.attribute_set & right.attribute_set, left, right
                ),
            )
        result = backend.join(left, right)
        ctx.stats.joins += 1
        ctx.stats.rows_joined += len(result)
        return result

    if isinstance(expr, Union):
        left = _eval(expr.left, ctx)
        right = _eval(expr.right, ctx)
        return left.union(right)

    if isinstance(expr, Difference):
        left = _eval(expr.left, ctx)
        if not left:
            return left  # empty minus anything is empty: skip the right side
        return _eval_difference(expr, ctx, left)

    if isinstance(expr, Rename):
        return _eval(expr.child, ctx).rename(expr.mapping)

    raise EvaluationError(f"unknown expression node {type(expr).__name__}")
