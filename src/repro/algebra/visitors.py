"""Path-aware traversal of expression trees.

The static analyses in :mod:`repro.analysis` must report *where* in an
expression a problem sits. Expressions are immutable trees without source
positions (most are built programmatically, not parsed), so the stable
address of a node is its **path**: the sequence of child indices from the
root. This module provides the shared traversal and formatting helpers:

* :func:`walk_with_path` — pre-order traversal yielding ``(path, node)``;
* :func:`format_path` — render a path with the operator slot names
  (``left``/``right``/``child``), e.g. ``root.left.child``.

These complement :meth:`Expression.walk`, which yields nodes without
addresses.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from repro.algebra.expressions import (
    Difference,
    Expression,
    Join,
    Union,
)

Path = Tuple[int, ...]

_BINARY = (Join, Union, Difference)


def child_slot(node: Expression, index: int) -> str:
    """The human name of child ``index`` of ``node`` (``left``/``right``/``child``)."""
    if isinstance(node, _BINARY):
        return ("left", "right")[index]
    return "child"


def walk_with_path(expression: Expression) -> Iterator[Tuple[Path, Expression]]:
    """All nodes of the tree, pre-order, with their path from the root.

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> [(path, type(node).__name__)
    ...  for path, node in walk_with_path(parse("pi[a](R join S)"))]
    [((), 'Project'), ((0,), 'Join'), ((0, 0), 'RelationRef'), ((0, 1), 'RelationRef')]
    """
    stack: List[Tuple[Path, Expression]] = [((), expression)]
    while stack:
        path, node = stack.pop()
        yield path, node
        children = node.children()
        for index in range(len(children) - 1, -1, -1):
            stack.append((path + (index,), children[index]))


def format_path(expression: Expression, path: Path) -> str:
    """Render ``path`` with slot names: ``root``, ``root.left.child``, ...

    Examples
    --------
    >>> from repro.algebra.parser import parse
    >>> expr = parse("pi[a](R join S)")
    >>> format_path(expr, (0, 1))
    'root.child.right'
    """
    parts = ["root"]
    node = expression
    for index in path:
        parts.append(child_slot(node, index))
        node = node.children()[index]
    return ".".join(parts)
