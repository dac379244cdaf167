"""Disk-based B+-tree — the paper's string baseline (PostgreSQL nbtree).

One tree node per 8 KB page, as in PostgreSQL. Leaves are chained for range
scans; duplicates are stored as separate entries. Deletion is *lazy* exactly
as in PostgreSQL's nbtree: entries are removed in place, pages are never
merged, and a later :meth:`vacuum` reclaims fully-empty leaves — this is the
faithful model, not a shortcut.

Search operators used by the experiments:

- exact match (:meth:`search`),
- range scan (:meth:`range_scan`),
- prefix match (:meth:`prefix_scan`) — efficient, because leaf order is key
  order (why the B+-tree wins Figure 6's prefix panel),
- regular-expression match with the ``?`` wildcard (:meth:`regex_scan`) —
  only the prefix *before* the first wildcard can be used to narrow the
  scan, so a leading ``?`` degrades to a full leaf scan (why the trie wins
  Figure 7 by orders of magnitude).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.baselines import EntryAtATime
from repro.costmodel import CPU_OPS
from repro.errors import KeyNotFoundError, PlannerError
from repro.storage.buffer import BufferPool
from repro.storage.page import ITEM_OVERHEAD, PAGE_CAPACITY, approx_size

#: Fill fraction targeted by bulk loading (PostgreSQL's leaf fillfactor).
BULK_FILL = 0.90


def _entry_bytes(key: Any, value: Any = None) -> int:
    return approx_size(key) + approx_size(value) + ITEM_OVERHEAD


def _bisect_cost(n: int) -> int:
    """Key comparisons one binary search over ``n`` keys performs."""
    return max(1, n.bit_length())


@dataclass
class _LeafNode:
    keys: list[Any] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    next_leaf: int | None = None
    used_bytes: int = 0

    is_leaf: bool = True


@dataclass
class _InnerNode:
    keys: list[Any] = field(default_factory=list)  # separators
    children: list[int] = field(default_factory=list)  # page ids, len(keys)+1
    used_bytes: int = 0

    is_leaf: bool = False


class BPlusTree(EntryAtATime):
    """A disk-based B+-tree over the shared buffer pool.

    Keys may be any totally ordered type (strings, numbers, tuples).
    """

    def __init__(
        self,
        buffer: BufferPool,
        name: str = "btree",
        page_capacity: int = PAGE_CAPACITY,
    ) -> None:
        self.buffer = buffer
        self.name = name
        self.page_capacity = page_capacity
        self._page_ids: list[int] = []
        root = _LeafNode()
        self.root_page = self._new_node(root)
        self._height = 1
        self._item_count = 0

    # -- page plumbing -----------------------------------------------------------

    def _new_node(self, node: Any) -> int:
        page_id = self.buffer.new_page(node)
        self._page_ids.append(page_id)
        return page_id

    def _read(self, page_id: int) -> Any:
        return self.buffer.fetch(page_id)

    def _write(self, page_id: int, node: Any) -> None:
        self.buffer.update(page_id, node)

    # -- insert ---------------------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert ``(key, value)``; duplicates are kept as separate entries."""
        split = self._insert_into(self.root_page, key, value)
        if split is not None:
            separator, right_page = split
            new_root = _InnerNode(
                keys=[separator],
                children=[self.root_page, right_page],
                used_bytes=_entry_bytes(separator) + 16,
            )
            self.root_page = self._new_node(new_root)
            self._height += 1
        self._item_count += 1

    def _insert_into(
        self, page_id: int, key: Any, value: Any
    ) -> tuple[Any, int] | None:
        """Recursive insert; returns ``(separator, new_right_page)`` on split."""
        node = self._read(page_id)
        CPU_OPS.add(_bisect_cost(len(node.keys)))
        if node.is_leaf:
            position = bisect.bisect_right(node.keys, key)
            node.keys.insert(position, key)
            node.values.insert(position, value)
            node.used_bytes += _entry_bytes(key, value)
            if node.used_bytes > self.page_capacity:
                result = self._split_leaf(page_id, node)
            else:
                result = None
            self._write(page_id, node)
            return result

        child_index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right_page = split
        position = bisect.bisect_right(node.keys, separator)
        node.keys.insert(position, separator)
        node.children.insert(position + 1, right_page)
        node.used_bytes += _entry_bytes(separator) + 8
        if node.used_bytes > self.page_capacity:
            result = self._split_inner(page_id, node)
        else:
            result = None
        self._write(page_id, node)
        return result

    def _split_leaf(self, page_id: int, node: _LeafNode) -> tuple[Any, int]:
        mid = len(node.keys) // 2
        right = _LeafNode(
            keys=node.keys[mid:],
            values=node.values[mid:],
            next_leaf=node.next_leaf,
        )
        right.used_bytes = sum(
            _entry_bytes(k, v) for k, v in zip(right.keys, right.values)
        )
        node.keys = node.keys[:mid]
        node.values = node.values[:mid]
        node.used_bytes -= right.used_bytes
        right_page = self._new_node(right)
        node.next_leaf = right_page
        return right.keys[0], right_page

    def _split_inner(self, page_id: int, node: _InnerNode) -> tuple[Any, int]:
        mid = len(node.keys) // 2
        separator = node.keys[mid]
        right = _InnerNode(
            keys=node.keys[mid + 1 :],
            children=node.children[mid + 1 :],
        )
        right.used_bytes = (
            sum(_entry_bytes(k) + 8 for k in right.keys) + 16
        )
        node.keys = node.keys[:mid]
        node.children = node.children[: mid + 1]
        node.used_bytes = sum(_entry_bytes(k) + 8 for k in node.keys) + 16
        right_page = self._new_node(right)
        return separator, right_page

    # -- bulk load --------------------------------------------------------------------

    def bulk_load(self, items: list[tuple[Any, Any]]) -> None:
        """Replace the tree contents with ``items`` (sorted by key inside).

        Packs leaves to ``BULK_FILL`` then builds the inner levels bottom-up,
        as PostgreSQL's CREATE INDEX does after sorting the relation.
        """
        items = sorted(items, key=lambda kv: kv[0])
        self._page_ids.clear()
        self._item_count = len(items)
        if not items:
            self.root_page = self._new_node(_LeafNode())
            self._height = 1
            return

        budget = self.page_capacity * BULK_FILL
        leaves: list[tuple[int, Any]] = []  # (page_id, first_key)
        current = _LeafNode()
        for key, value in items:
            size = _entry_bytes(key, value)
            if current.keys and current.used_bytes + size > budget:
                leaves.append((self._new_node(current), current.keys[0]))
                current = _LeafNode()
            current.keys.append(key)
            current.values.append(value)
            current.used_bytes += size
        leaves.append((self._new_node(current), current.keys[0]))
        for (page_id, _), (next_page, _) in zip(leaves, leaves[1:]):
            node = self._read(page_id)
            node.next_leaf = next_page
            self._write(page_id, node)

        level = leaves
        self._height = 1
        while len(level) > 1:
            next_level: list[tuple[int, Any]] = []
            current_inner = _InnerNode(children=[level[0][0]], used_bytes=16)
            first_key = level[0][1]
            for page_id, sep_key in level[1:]:
                size = _entry_bytes(sep_key) + 8
                if current_inner.keys and current_inner.used_bytes + size > budget:
                    next_level.append((self._new_node(current_inner), first_key))
                    current_inner = _InnerNode(children=[page_id], used_bytes=16)
                    first_key = sep_key
                    continue
                current_inner.keys.append(sep_key)
                current_inner.children.append(page_id)
                current_inner.used_bytes += size
            next_level.append((self._new_node(current_inner), first_key))
            level = next_level
            self._height += 1
        self.root_page = level[0][0]

    # -- point / range search --------------------------------------------------------------

    def _descend_to_leaf(self, key: Any, leftmost: bool = False) -> int:
        """Page id of the leaf where ``key`` belongs.

        ``leftmost=True`` biases toward the first leaf that could contain an
        equal key (needed for duplicate runs).
        """
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            CPU_OPS.add(_bisect_cost(len(node.keys)))
            if leftmost:
                index = bisect.bisect_left(node.keys, key)
            else:
                index = bisect.bisect_right(node.keys, key)
            page_id = node.children[index]
            node = self._read(page_id)
        CPU_OPS.add(_bisect_cost(len(node.keys)))
        return page_id

    def search(self, key: Any) -> list[Any]:
        """All values stored under exactly ``key``."""
        return [value for _, value in self.range_scan(key, key, inclusive=True)]

    def range_scan(
        self, low: Any, high: Any, inclusive: bool = True
    ) -> Iterator[tuple[Any, Any]]:
        """Yield ``(key, value)`` for low <= key < high (<= when inclusive)."""
        page_id = self._descend_to_leaf(low, leftmost=True)
        while page_id is not None:
            node = self._read(page_id)
            start = bisect.bisect_left(node.keys, low)
            for position in range(start, len(node.keys)):
                key = node.keys[position]
                CPU_OPS.add(1)
                if key > high or (key == high and not inclusive):
                    return
                yield key, node.values[position]
            page_id = node.next_leaf

    def scan_all(self) -> Iterator[tuple[Any, Any]]:
        """Full ordered scan through the leaf chain."""
        page_id = self.root_page
        node = self._read(page_id)
        while not node.is_leaf:
            page_id = node.children[0]
            node = self._read(page_id)
        while page_id is not None:
            node = self._read(page_id)
            CPU_OPS.add(len(node.keys))
            yield from zip(node.keys, node.values)
            page_id = node.next_leaf

    # -- string search operators ------------------------------------------------------------

    def prefix_scan(self, prefix: str) -> Iterator[tuple[str, Any]]:
        """All entries whose key starts with ``prefix`` (string keys only)."""
        if prefix == "":
            yield from self.scan_all()
            return
        page_id = self._descend_to_leaf(prefix, leftmost=True)
        while page_id is not None:
            node = self._read(page_id)
            start = bisect.bisect_left(node.keys, prefix)
            for position in range(start, len(node.keys)):
                key = node.keys[position]
                CPU_OPS.add(1)
                if not key.startswith(prefix):
                    if key > prefix:
                        return
                    continue
                yield key, node.values[position]
            page_id = node.next_leaf

    def regex_scan(self, pattern: str, wildcard: str = "?") -> Iterator[tuple[str, Any]]:
        """Entries matching ``pattern`` under the paper's ``?=`` semantics.

        Only the prefix preceding the first wildcard narrows the B+-tree
        scan; everything after is post-filtering. A pattern starting with
        the wildcard forces a full scan — the sensitivity the paper
        highlights in Section 6.
        """
        from repro.indexes.trie import regex_matches

        wildcard_at = pattern.find(wildcard)
        prefix = pattern if wildcard_at < 0 else pattern[:wildcard_at]
        for key, value in self.prefix_scan(prefix):
            if len(key) > len(pattern):
                # Keys sharing the prefix but longer than the pattern cannot
                # match; keep scanning — longer and shorter keys interleave.
                continue
            if regex_matches(pattern, key):
                yield key, value

    def glob_scan(self, pattern: str) -> Iterator[tuple[str, Any]]:
        """Entries matching a glob pattern ('?' one char, '*' any run).

        Extension operator ``*=``: as with ``?=``, only the literal prefix
        before the first wildcard narrows the scan.
        """
        from repro.indexes.trie import STAR, WILDCARD, glob_matches

        cut = len(pattern)
        for wildcard in (WILDCARD, STAR):
            at = pattern.find(wildcard)
            if at >= 0:
                cut = min(cut, at)
        for key, value in self.prefix_scan(pattern[:cut]):
            if glob_matches(pattern, key):
                yield key, value

    # -- the access-method contract (what ``TableIndex`` calls) ---------------------------

    def scan(self, op: str, operand: Any) -> Iterator[Any]:
        """Values of the entries whose key satisfies ``key <op> operand``."""
        if op == "=":
            yield from self.search(operand)
        elif op == "#=":
            for _key, value in self.prefix_scan(operand):
                yield value
        elif op == "?=":
            for _key, value in self.regex_scan(operand):
                yield value
        elif op == "*=":
            for _key, value in self.glob_scan(operand):
                yield value
        elif op in ("<", "<="):
            for key, value in self.scan_all():
                if key > operand or (key == operand and op == "<"):
                    break
                yield value
        elif op in (">", ">="):
            for key, value in self.range_scan(operand, _TOP):
                if key == operand and op == ">":
                    continue
                yield value
        else:
            raise PlannerError(f"btree index cannot serve {op!r}")

    # -- delete / vacuum -----------------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Lazily remove entries equal to ``key`` (and ``value`` when given).

        Returns the number of entries removed; raises
        :class:`KeyNotFoundError` when none matched. Pages are not merged
        (PostgreSQL nbtree semantics); :meth:`vacuum` reclaims empty leaves.
        """
        removed = 0
        page_id = self._descend_to_leaf(key, leftmost=True)
        while page_id is not None:
            node = self._read(page_id)
            position = bisect.bisect_left(node.keys, key)
            changed = False
            while position < len(node.keys) and node.keys[position] == key:
                if value is None or node.values[position] == value:
                    node.used_bytes -= _entry_bytes(key, node.values[position])
                    del node.keys[position]
                    del node.values[position]
                    removed += 1
                    changed = True
                else:
                    position += 1
            if changed:
                self._write(page_id, node)
            if node.keys and node.keys[-1] > key:
                break
            page_id = node.next_leaf
        if removed == 0:
            raise KeyNotFoundError(key)
        self._item_count -= removed
        return removed

    def vacuum(self) -> int:
        """Rebuild the tree without dead space; returns pages reclaimed."""
        before = len(self._page_ids)
        entries = list(self.scan_all())
        for page_id in self._page_ids:
            self.buffer.free_page(page_id)
        self._page_ids = []
        self.bulk_load(entries)
        return before - len(self._page_ids)

    # -- statistics ----------------------------------------------------------------------------

    def __len__(self) -> int:
        return self._item_count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def height(self) -> int:
        """Tree height in nodes — equal to height in pages (1 node = 1 page)."""
        return self._height

    page_height = height

    def check_invariants(self) -> None:
        """Validate key order within and across leaves (testing aid)."""
        previous = None
        for key, _ in self.scan_all():
            if previous is not None and key < previous:
                raise AssertionError(
                    f"B+-tree order violated: {key!r} after {previous!r}"
                )
            previous = key


class _Top:
    """A value greater than every string/number (open upper bound)."""

    def __gt__(self, other: Any) -> bool:  # pragma: no cover - trivial
        return True

    def __lt__(self, other: Any) -> bool:  # pragma: no cover - trivial
        return False


_TOP = _Top()
