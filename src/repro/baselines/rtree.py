"""Disk-based R-tree (Guttman) — the paper's spatial baseline.

One node per 8 KB page (PostgreSQL's pre-GiST rtree access method). Inserts
use ChooseLeaf by least area enlargement with quadratic split; deletes use
FindLeaf + CondenseTree with reinsertion, as in Guttman's original paper.

Leaf entries hold ``(mbr, key, value)`` where ``key`` is the indexed object
(a Point or LineSegment) and ``mbr`` its bounding box; inner entries hold
``(mbr, child_page)``. Supported searches: window intersection (the paper's
range/window search), exact object match, and containment of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.baselines import EntryAtATime
from repro.costmodel import CPU_OPS
from repro.errors import KeyNotFoundError, PlannerError
from repro.geometry.box import Box
from repro.geometry.point import Point
from repro.geometry.segment import LineSegment
from repro.storage.buffer import BufferPool
from repro.storage.page import ITEM_OVERHEAD, PAGE_CAPACITY, approx_size

#: Minimum fill fraction (Guttman's m as a fraction of M).
MIN_FILL = 0.40


def object_mbr(obj: Any) -> Box:
    """Minimum bounding rectangle of an indexable object."""
    if isinstance(obj, Point):
        return Box.from_point(obj)
    if isinstance(obj, LineSegment):
        return obj.bounding_box()
    if isinstance(obj, Box):
        return obj
    raise TypeError(f"R-tree cannot index objects of type {type(obj).__name__}")


def _leaf_entry_bytes(key: Any, value: Any) -> int:
    return 32 + approx_size(key) + approx_size(value) + ITEM_OVERHEAD


_INNER_ENTRY_BYTES = 32 + 8 + ITEM_OVERHEAD


@dataclass
class _Node:
    is_leaf: bool
    # Leaf entries: (Box, key, value); inner entries: (Box, child_page_id).
    entries: list[tuple] = field(default_factory=list)
    used_bytes: int = 0

    def mbr(self) -> Box:
        return Box.bounding([entry[0] for entry in self.entries])


class RTree(EntryAtATime):
    """A Guttman R-tree over the shared buffer pool.

    ``split`` selects the node-split heuristic: ``"quadratic"`` (Guttman's
    default here) or ``"linear"`` — the cheaper variant with visibly worse
    MBR overlap, which is what PostgreSQL's pre-GiST rtree access method
    (the paper's baseline) shipped.
    """

    def __init__(
        self,
        buffer: BufferPool,
        name: str = "rtree",
        split: str = "quadratic",
        page_capacity: int = PAGE_CAPACITY,
    ) -> None:
        if split not in ("quadratic", "linear"):
            raise ValueError(f"unknown split policy {split!r}")
        self.buffer = buffer
        self.name = name
        self.split_policy = split
        self.page_capacity = page_capacity
        self._page_ids: list[int] = []
        self.root_page = self._new_node(_Node(is_leaf=True))
        self._height = 1
        self._item_count = 0

    # -- page plumbing -----------------------------------------------------------

    def _new_node(self, node: _Node) -> int:
        page_id = self.buffer.new_page(node)
        self._page_ids.append(page_id)
        return page_id

    def _read(self, page_id: int) -> _Node:
        return self.buffer.fetch(page_id)

    def _write(self, page_id: int, node: _Node) -> None:
        self.buffer.update(page_id, node)

    def _free_node(self, page_id: int) -> None:
        self._page_ids.remove(page_id)
        self.buffer.free_page(page_id)

    # -- insert ---------------------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert object ``key`` with payload ``value``."""
        mbr = object_mbr(key)
        split = self._insert_entry(self.root_page, (mbr, key, value), self._height)
        if split is not None:
            self._grow_root(split)
        self._item_count += 1

    def _grow_root(self, split: tuple[int, int]) -> None:
        left_page, right_page = split
        left = self._read(left_page)
        left_mbr = left.mbr()
        right = self._read(right_page)
        right_mbr = right.mbr()
        new_root = _Node(
            is_leaf=False,
            entries=[(left_mbr, left_page), (right_mbr, right_page)],
            used_bytes=2 * _INNER_ENTRY_BYTES,
        )
        self.root_page = self._new_node(new_root)
        self._height += 1

    def _insert_entry(
        self, page_id: int, leaf_entry: tuple, levels_left: int
    ) -> tuple[int, int] | None:
        """Recursive ChooseLeaf + AdjustTree; returns (left, right) on split."""
        node = self._read(page_id)
        if node.is_leaf:
            node.entries.append(leaf_entry)
            node.used_bytes += _leaf_entry_bytes(leaf_entry[1], leaf_entry[2])
            if node.used_bytes > self.page_capacity:
                return self._split(page_id, node)
            self._write(page_id, node)
            return None

        mbr = leaf_entry[0]
        best_index = self._choose_subtree(node, mbr)
        child_page = node.entries[best_index][1]
        split = self._insert_entry(child_page, leaf_entry, levels_left - 1)
        if split is None:
            # AdjustTree: grow the chosen entry's MBR to cover the insert.
            child_mbr = node.entries[best_index][0].union(mbr)
            node.entries[best_index] = (child_mbr, child_page)
            self._write(page_id, node)
            return None
        left_page, right_page = split
        left_mbr = self._read(left_page).mbr()
        right_mbr = self._read(right_page).mbr()
        node.entries[best_index] = (left_mbr, left_page)
        node.entries.append((right_mbr, right_page))
        node.used_bytes += _INNER_ENTRY_BYTES
        if node.used_bytes > self.page_capacity:
            return self._split(page_id, node)
        self._write(page_id, node)
        return None

    @staticmethod
    def _choose_subtree(node: _Node, mbr: Box) -> int:
        """Guttman ChooseLeaf: least enlargement, then least area."""
        best_index = 0
        best_enlargement = float("inf")
        best_area = float("inf")
        CPU_OPS.add(len(node.entries))
        for index, entry in enumerate(node.entries):
            entry_mbr: Box = entry[0]
            enlargement = entry_mbr.enlargement(mbr)
            area = entry_mbr.area()
            if enlargement < best_enlargement or (
                enlargement == best_enlargement and area < best_area
            ):
                best_index = index
                best_enlargement = enlargement
                best_area = area
        return best_index

    # -- quadratic split -----------------------------------------------------------------

    def _split(self, page_id: int, node: _Node) -> tuple[int, int]:
        """Guttman node split (quadratic or linear seeds per policy)."""
        entries = node.entries
        if self.split_policy == "linear":
            seed_a, seed_b = self._pick_seeds_linear(entries)
        else:
            seed_a, seed_b = self._pick_seeds(entries)
        group_a = [entries[seed_a]]
        group_b = [entries[seed_b]]
        mbr_a = entries[seed_a][0]
        mbr_b = entries[seed_b][0]
        remaining = [
            entry
            for index, entry in enumerate(entries)
            if index not in (seed_a, seed_b)
        ]
        min_entries = max(1, int(len(entries) * MIN_FILL))

        while remaining:
            if len(group_a) + len(remaining) <= min_entries:
                group_a.extend(remaining)
                remaining = []
                break
            if len(group_b) + len(remaining) <= min_entries:
                group_b.extend(remaining)
                remaining = []
                break
            index = self._pick_next(remaining, mbr_a, mbr_b)
            entry = remaining.pop(index)
            growth_a = mbr_a.enlargement(entry[0])
            growth_b = mbr_b.enlargement(entry[0])
            if growth_a < growth_b or (
                growth_a == growth_b and len(group_a) <= len(group_b)
            ):
                group_a.append(entry)
                mbr_a = mbr_a.union(entry[0])
            else:
                group_b.append(entry)
                mbr_b = mbr_b.union(entry[0])

        node.entries = group_a
        node.used_bytes = self._entries_bytes(node.is_leaf, group_a)
        self._write(page_id, node)
        right = _Node(
            is_leaf=node.is_leaf,
            entries=group_b,
            used_bytes=self._entries_bytes(node.is_leaf, group_b),
        )
        right_page = self._new_node(right)
        return page_id, right_page

    @staticmethod
    def _entries_bytes(is_leaf: bool, entries: list[tuple]) -> int:
        if is_leaf:
            return sum(_leaf_entry_bytes(e[1], e[2]) for e in entries)
        return len(entries) * _INNER_ENTRY_BYTES

    @staticmethod
    def _pick_seeds(entries: list[tuple]) -> tuple[int, int]:
        """The pair wasting the most area when grouped together."""
        worst = (-1.0, 0, 1)
        for i in range(len(entries)):
            box_i: Box = entries[i][0]
            for j in range(i + 1, len(entries)):
                box_j: Box = entries[j][0]
                waste = box_i.union(box_j).area() - box_i.area() - box_j.area()
                if waste > worst[0]:
                    worst = (waste, i, j)
        return worst[1], worst[2]

    @staticmethod
    def _pick_seeds_linear(entries: list[tuple]) -> tuple[int, int]:
        """Guttman's LinearPickSeeds: extreme rectangles per dimension."""
        best_pair = (0, 1)
        best_separation = -1.0
        for axis in range(2):
            if axis == 0:
                lows = [e[0].xmin for e in entries]
                highs = [e[0].xmax for e in entries]
            else:
                lows = [e[0].ymin for e in entries]
                highs = [e[0].ymax for e in entries]
            width = max(highs) - min(lows)
            if width <= 0.0:
                continue
            highest_low = max(range(len(entries)), key=lambda i: lows[i])
            lowest_high = min(range(len(entries)), key=lambda i: highs[i])
            if highest_low == lowest_high:
                continue
            separation = (lows[highest_low] - highs[lowest_high]) / width
            if separation > best_separation:
                best_separation = separation
                best_pair = (lowest_high, highest_low)
        return best_pair

    @staticmethod
    def _pick_next(remaining: list[tuple], mbr_a: Box, mbr_b: Box) -> int:
        """The entry with the strongest group preference."""
        best_index = 0
        best_difference = -1.0
        for index, entry in enumerate(remaining):
            growth_a = mbr_a.enlargement(entry[0])
            growth_b = mbr_b.enlargement(entry[0])
            difference = abs(growth_a - growth_b)
            if difference > best_difference:
                best_difference = difference
                best_index = index
        return best_index

    # -- search -------------------------------------------------------------------------

    def window_search(self, window: Box) -> Iterator[tuple[Any, Any]]:
        """All ``(key, value)`` whose MBR intersects ``window``."""
        stack = [self.root_page]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                for mbr, key, value in node.entries:
                    CPU_OPS.add(1)
                    if window.intersects(mbr):
                        yield key, value
                continue
            CPU_OPS.add(len(node.entries))
            for mbr, child_page in node.entries:
                if window.intersects(mbr):
                    stack.append(child_page)

    def search_exact(self, key: Any) -> list[tuple[Any, Any]]:
        """Entries whose object equals ``key`` exactly."""
        window = object_mbr(key)
        return [
            (found, value)
            for found, value in self.window_search(window)
            if found == key
        ]

    def search_contains_point(self, point: Point) -> list[tuple[Any, Any]]:
        """Point-match search: entries whose object is exactly ``point``."""
        return self.search_exact(point)

    def range_search(self, window: Box) -> list[tuple[Any, Any]]:
        """Window search with exact geometry filtering for segments."""
        results = []
        for key, value in self.window_search(window):
            if isinstance(key, LineSegment):
                if key.intersects_box(window):
                    results.append((key, value))
            elif isinstance(key, Point):
                if window.contains_point(key):
                    results.append((key, value))
            else:
                results.append((key, value))
        return results

    # -- the access-method contract (what ``TableIndex`` calls) ---------------

    def scan(self, op: str, operand: Any) -> Iterator[Any]:
        """Values of the entries whose object satisfies ``obj <op> operand``."""
        if op in ("@", "="):
            for _key, value in self.search_exact(operand):
                yield value
        elif op in ("^", "&&"):
            for _key, value in self.range_search(operand):
                yield value
        else:
            raise PlannerError(f"rtree index cannot serve {op!r}")

    # -- delete -------------------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Guttman delete: FindLeaf, remove, CondenseTree with reinsertion."""
        mbr = object_mbr(key)
        removed: list[tuple] = []
        self._delete_from(self.root_page, mbr, key, value, removed, orphans := [])
        if not removed:
            raise KeyNotFoundError(key)
        self._item_count -= len(removed)
        # Reinsert entries from condensed (underfull) nodes.
        for is_leaf, entries in orphans:
            for entry in entries:
                if is_leaf:
                    self._reinsert_leaf_entry(entry)
                else:
                    self._reinsert_subtree(entry)
        self._shrink_root()
        return len(removed)

    def _delete_from(
        self,
        page_id: int,
        mbr: Box,
        key: Any,
        value: Any,
        removed: list[tuple],
        orphans: list[tuple[bool, list[tuple]]],
    ) -> bool:
        """Returns True when this subtree changed (MBR must be recomputed)."""
        node = self._read(page_id)
        if node.is_leaf:
            kept = []
            for entry in node.entries:
                if entry[1] == key and (value is None or entry[2] == value):
                    removed.append(entry)
                else:
                    kept.append(entry)
            if len(kept) == len(node.entries):
                return False
            node.entries = kept
            node.used_bytes = self._entries_bytes(True, kept)
            self._write(page_id, node)
            return True

        changed = False
        kept_entries = []
        for entry_mbr, child_page in node.entries:
            if not entry_mbr.intersects(mbr):
                kept_entries.append((entry_mbr, child_page))
                continue
            child_changed = self._delete_from(
                child_page, mbr, key, value, removed, orphans
            )
            if not child_changed:
                kept_entries.append((entry_mbr, child_page))
                continue
            changed = True
            child = self._read(child_page)
            min_entries = 2 if not child.is_leaf else 1
            if len(child.entries) < min_entries:
                orphans.append((child.is_leaf, list(child.entries)))
                self._free_node(child_page)
            else:
                kept_entries.append((child.mbr(), child_page))
        if changed:
            node.entries = kept_entries
            node.used_bytes = self._entries_bytes(False, kept_entries)
            self._write(page_id, node)
        return changed

    def _reinsert_leaf_entry(self, entry: tuple) -> None:
        split = self._insert_entry(self.root_page, entry, self._height)
        if split is not None:
            self._grow_root(split)

    def _reinsert_subtree(self, entry: tuple) -> None:
        """Reinsert every leaf entry reachable from an orphaned inner entry."""
        stack = [entry[1]]
        while stack:
            page_id = stack.pop()
            node = self._read(page_id)
            if node.is_leaf:
                for leaf_entry in node.entries:
                    self._reinsert_leaf_entry(leaf_entry)
            else:
                stack.extend(child for _, child in node.entries)
            self._free_node(page_id)

    def _shrink_root(self) -> None:
        while True:
            root = self._read(self.root_page)
            if root.is_leaf or len(root.entries) != 1:
                return
            old_root = self.root_page
            self.root_page = root.entries[0][1]
            self._free_node(old_root)
            self._height -= 1

    # -- statistics ----------------------------------------------------------------------

    def __len__(self) -> int:
        return self._item_count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def height(self) -> int:
        return self._height

    page_height = height

    def check_invariants(self) -> None:
        """Every inner MBR covers its child's MBR (testing aid)."""
        stack = [self.root_page]
        while stack:
            node = self._read(stack.pop())
            if node.is_leaf:
                for mbr, key, _ in node.entries:
                    if not mbr.contains_box(object_mbr(key)):
                        raise AssertionError("leaf MBR does not cover object")
                continue
            for mbr, child_page in node.entries:
                child = self._read(child_page)
                if child.entries and not mbr.contains_box(child.mbr()):
                    raise AssertionError("inner MBR does not cover child")
                stack.append(child_page)
