"""Hierarchical trace spans for the maintenance engine.

A *span* records one timed unit of work — a refresh, an update
normalization, a single operator evaluation — together with attributes
(rows in/out, the relation read, whether a fast path fired) and child
spans. Spans form trees: the maintenance engine opens a ``refresh`` span,
``normalize_update`` and per-relation ``maintain`` spans nest inside it,
and the evaluator opens one span per operator it actually computes.

Tracing is strictly opt-in. The engine holds ``tracer=None`` by default
and every instrumented call site opens its span through :func:`span_of`,
which hands back the one shared do-nothing :data:`NULL_SPAN` for a
``None`` tracer — so each site is written once, and the disabled path
allocates no spans and reads no clock (asserted by
``tests/obs/test_zero_overhead.py``). When enabled, finished
root spans are handed to one or more :class:`TraceCollector`\\ s — an
in-memory :class:`RingBufferCollector` by default, optionally a
:class:`JsonlSink` that streams every span to a JSON-lines file for
offline analysis (``python -m repro obs report``).

Examples
--------
>>> collector = RingBufferCollector()
>>> tracer = Tracer([collector])
>>> with tracer.span("refresh", relations=["Sale"]) as root:
...     with tracer.span("normalize_update") as inner:
...         _ = inner.set(rows=1)
>>> trace = collector.last("refresh")
>>> [child.name for child in trace.children]
['normalize_update']
>>> trace.children[0].attributes["rows"]
1
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence


class Span:
    """One timed, attributed node of a trace tree.

    Attributes
    ----------
    name:
        What the span measures (``"refresh"``, ``"join"``, ``"read"``, ...).
    attributes:
        Free-form ``{key: value}`` annotations — rows in/out, relation
        names, ``fastpath``/``cached``/``index_hit`` markers.
    started_at / ended_at:
        Clock readings (seconds; ``ended_at`` is ``None`` while open).
    children:
        Nested spans, in completion order.
    span_id / parent_id:
        Tracer-local identifiers (``parent_id`` is ``None`` for roots);
        they key the flattened JSONL representation.
    """

    __slots__ = (
        "name",
        "attributes",
        "started_at",
        "ended_at",
        "children",
        "span_id",
        "parent_id",
    )

    def __init__(
        self,
        name: str,
        attributes: Optional[Dict[str, object]] = None,
        started_at: float = 0.0,
        span_id: int = 0,
        parent_id: Optional[int] = None,
    ) -> None:
        self.name = name
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.started_at = started_at
        self.ended_at: Optional[float] = None
        self.children: List["Span"] = []
        self.span_id = span_id
        self.parent_id = parent_id

    @property
    def duration(self) -> float:
        """Wall-clock seconds this span covered (0.0 while still open)."""
        if self.ended_at is None:
            return 0.0
        return self.ended_at - self.started_at

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to this span (returns self for chaining)."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, pre-order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> Optional["Span"]:
        """The first span named ``name`` in this subtree (pre-order)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span named ``name`` in this subtree, pre-order."""
        return [span for span in self.walk() if span.name == name]

    def to_dict(self) -> Dict[str, object]:
        """A flat JSON-serializable record (children via ``parent_id``)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.started_at,
            "duration_ms": round(self.duration * 1e3, 6),
            "attributes": self.attributes,
        }

    def __repr__(self) -> str:
        attrs = ", ".join(f"{k}={v!r}" for k, v in self.attributes.items())
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f}ms"
            f"{', ' + attrs if attrs else ''}, {len(self.children)} children)"
        )


class TraceCollector:
    """Where finished root spans go. Subclasses override :meth:`collect`."""

    def collect(self, root: Span) -> None:
        """Receive one finished root span (with its full subtree)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (no-op by default)."""


class RingBufferCollector(TraceCollector):
    """Keeps the last ``capacity`` root spans in memory (the default sink).

    Bounded by construction, so a long-lived warehouse can leave tracing on
    without growing without limit. ``Warehouse.explain()`` reads the newest
    ``refresh`` root from here.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.capacity = capacity
        self._roots: deque = deque(maxlen=capacity)

    def collect(self, root: Span) -> None:
        self._roots.append(root)

    @property
    def roots(self) -> List[Span]:
        """The buffered root spans, oldest first."""
        return list(self._roots)

    def last(self, name: Optional[str] = None) -> Optional[Span]:
        """The newest root span (optionally: the newest one named ``name``)."""
        for root in reversed(self._roots):
            if name is None or root.name == name:
                return root
        return None

    def clear(self) -> None:
        """Drop every buffered trace."""
        self._roots.clear()

    def __len__(self) -> int:
        return len(self._roots)

    def __repr__(self) -> str:
        return f"RingBufferCollector({len(self._roots)}/{self.capacity} traces)"


class JsonlSink(TraceCollector):
    """Streams every span of every finished trace to a JSON-lines file.

    One JSON object per span (see :meth:`Span.to_dict`); trees are
    flattened and reconstructable via ``span_id``/``parent_id``. The file
    is line-buffered-appended per trace, so a crashed process loses at most
    the in-flight trace. Summarize a file with
    ``python -m repro obs report FILE``.
    """

    def __init__(self, path: str, mode: str = "a") -> None:
        self.path = path
        self._handle = open(path, mode, encoding="utf-8")

    def collect(self, root: Span) -> None:
        lines = [json.dumps(span.to_dict(), sort_keys=True) for span in root.walk()]
        self._handle.write("\n".join(lines) + "\n")
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"JsonlSink({self.path!r})"


class Tracer:
    """Builds span trees: a context-manager stack feeding collectors.

    A tracer is single-threaded by design (the engine is); it keeps the
    stack of open spans, assigns ids, stamps start/end times from ``clock``
    (injectable for deterministic tests), and hands finished *root* spans
    to every collector.

    The engine treats ``tracer=None`` as "tracing disabled"; call sites go
    through :func:`span_of`, so disabling builds nothing.
    """

    def __init__(
        self,
        collectors: Optional[Iterable[TraceCollector]] = None,
        clock: Callable[[], float] = perf_counter,
    ) -> None:
        self.collectors: List[TraceCollector] = list(collectors or ())
        self._clock = clock
        self._stack: List[Span] = []
        self._next_id = 1
        #: The newest finished root span: what a caller that handed this
        #: tracer to an operation reads the operation's trace from.
        self.last_root: Optional[Span] = None

    @contextmanager
    def span(self, name: str, **attributes: object):
        """Open a child span of the current span (or a new root).

        Yields the :class:`Span` so the body can :meth:`Span.set` result
        attributes. On exit the span is closed, attached to its parent, and
        — if it was a root — delivered to every collector.
        """
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name,
            attributes,
            started_at=self._clock(),
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
        )
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span.ended_at = self._clock()
            self._stack.pop()
            if parent is not None:
                parent.children.append(span)
            else:
                self.last_root = span
                for collector in self.collectors:
                    collector.collect(span)

    @property
    def current(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: object) -> None:
        """Attach attributes to the innermost open span (no-op outside one).

        This is how the evaluator marks fast-path firings and index hits on
        the operator span it is currently inside.
        """
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def __repr__(self) -> str:
        return f"Tracer({len(self._stack)} open, {len(self.collectors)} collectors)"


class _NullSpan:
    """What :func:`span_of` yields while tracing is off: accepts and drops."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        return None

    def set(self, **attributes: object) -> "_NullSpan":
        return self


#: The single do-nothing span of the process; it holds no state.
NULL_SPAN = _NullSpan()


def span_of(tracer: Optional[Tracer], name: str, **attributes: object):
    """The span seam: ``tracer.span(name, ...)``, or :data:`NULL_SPAN`.

    Lets an instrumented site be one ``with span_of(tracer, ...) as span:``
    block whether or not tracing is on; result attributes go through
    ``span.set(...)``, which both kinds of span accept.
    """
    return NULL_SPAN if tracer is None else tracer.span(name, **attributes)
