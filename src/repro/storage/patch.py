"""Images kept current by deltas: ``(image − (D − I)) ∪ I``, read through the
delta-patched ``Relation`` operations (indexes and columnar twin carried), and
rebuilt instead past ``len(image) / Relation._PATCH_RATIO`` delta rows. Used
by sharded snapshot assembly and the warehouse's inverse images; a
``scripts/check_hotpath.py`` target: no clocks, no environment, no spans.
"""

from __future__ import annotations

from typing import FrozenSet, List, NamedTuple, Tuple

from repro.storage.relation import Relation

Rows = FrozenSet[tuple]


class Patch(NamedTuple):
    """An accumulated ``(D, I)`` against ``image`` (immutable; rows in its order)."""

    image: Relation
    deletes: Rows = frozenset()
    inserts: Rows = frozenset()

    def folded(self, removed: Rows, added: Rows) -> "Patch":
        """This patch followed by one more delta."""
        return Patch(self.image, self.deletes | removed, (self.inserts - removed) | added)

    def fits(self) -> bool:
        """Whether ``|D| + |I|`` is within the cap."""
        rows = len(self.deletes) + len(self.inserts)
        return rows * Relation._PATCH_RATIO <= len(self.image)

    def read(self) -> Relation:
        """The patched image, ``(image − (D − I)) ∪ I``."""
        attributes = self.image.attributes
        return self.image.difference(
            Relation._raw(attributes, self.deletes - self.inserts)
        ).union(Relation._raw(attributes, self.inserts))


class PatchedImage:
    """An image and the deltas committed after it, folded on the next read.

    :meth:`record` is O(1): a commit pays nothing for an image no one reads.
    """

    __slots__ = ("image", "_pending", "_rows")

    def __init__(self, image: Relation) -> None:
        self.image = image
        self._pending: List[Tuple[Relation, Relation]] = []
        self._rows = 0

    def record(self, deletes: Relation, inserts: Relation) -> bool:
        """Append one committed delta; ``False`` once past the cap."""
        self._pending.append((deletes, inserts))
        self._rows += len(deletes) + len(inserts)
        return self._rows * Relation._PATCH_RATIO <= len(self.image)

    def read(self) -> Tuple[Relation, bool]:
        """The current image, and whether recorded deltas were folded in."""
        if not self._pending:
            return self.image, False
        attributes = self.image.attributes
        patch = Patch(self.image)
        for deletes, inserts in self._pending:
            patch = patch.folded(
                deletes.reorder(attributes).rows, inserts.reorder(attributes).rows
            )
        self.image, self._pending, self._rows = patch.read(), [], 0
        return self.image, True
