"""Baseline access methods the paper compares SP-GiST against.

PostgreSQL's built-in B+-tree (strings, Figures 6–12), its R-tree (points
and segments, Figures 13–15), and the sequential heap scan (substring
search, Figure 16). All three run on the same page/buffer substrate as the
SP-GiST indexes so I/O comparisons are apples-to-apples.
"""

from typing import Any, Iterable


class EntryAtATime:
    """The batch calls of the access-method contract, one entry at a time.

    The baselines have no batched insert and no bulk-delete walk, so
    ``insert_many`` and ``build`` insert pair by pair and
    ``delete_entries`` deletes entry by entry. Defined before the
    submodules below are imported, because their classes derive from it.
    """

    supports_nn = False

    def insert_many(self, items: Iterable[tuple[Any, Any]]) -> None:
        """Insert each ``(key, value)`` pair in turn."""
        for key, value in items:
            self.insert(key, value)

    build = insert_many

    def delete_entries(self, entries: list[tuple[Any, Any]]) -> int:
        """Delete each ``(key, value)`` entry; returns how many."""
        for key, value in entries:
            self.delete(key, value)
        return len(entries)


from repro.baselines.bptree import BPlusTree  # noqa: E402
from repro.baselines.hash import HashIndex  # noqa: E402
from repro.baselines.rtree import RTree  # noqa: E402
from repro.baselines.seqscan import sequential_scan, substring_scan  # noqa: E402

__all__ = [
    "BPlusTree",
    "EntryAtATime",
    "HashIndex",
    "RTree",
    "sequential_scan",
    "substring_scan",
]
