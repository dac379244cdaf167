"""Disk-based hash index (linear hashing) — PostgreSQL's hash access method.

The paper's Section 4.2 lists hash among the access methods PostgreSQL
ships ("Hash: To support simple equality queries"); we provide it so the
engine's catalog mirrors that inventory and equality-only workloads have
their natural baseline.

Implementation: Litwin's linear hashing. Buckets are pages; a bucket that
outgrows its page chains into overflow pages; when the load factor passes
:data:`SPLIT_LOAD_FACTOR` the split pointer's bucket is rehashed into two,
growing the table one bucket at a time with no global rebuilds.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.baselines import EntryAtATime
from repro.costmodel import CPU_OPS
from repro.errors import KeyNotFoundError, PlannerError
from repro.storage.buffer import BufferPool
from repro.storage.page import ITEM_OVERHEAD, PAGE_CAPACITY, approx_size

#: Initial number of buckets (must be a power of two).
INITIAL_BUCKETS = 4

#: Average items per bucket that triggers the next split.
SPLIT_LOAD_FACTOR = 0.75


def stable_hash(key: Any) -> int:
    """Deterministic across processes (``hash()`` is salted for str)."""
    raw = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")


@dataclass
class _BucketPage:
    """One bucket (or overflow) page: parallel key/value slots + chain."""

    keys: list[Any] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    next_page: int | None = None
    used_bytes: int = 0


def _entry_bytes(key: Any, value: Any) -> int:
    return approx_size(key) + approx_size(value) + ITEM_OVERHEAD


class HashIndex(EntryAtATime):
    """A linear-hashing equality index over the shared buffer pool."""

    def __init__(
        self,
        buffer: BufferPool,
        name: str = "hash",
        page_capacity: int = PAGE_CAPACITY,
    ) -> None:
        self.buffer = buffer
        self.name = name
        self.page_capacity = page_capacity
        self._buckets: list[int] = [
            buffer.new_page(_BucketPage()) for _ in range(INITIAL_BUCKETS)
        ]
        self._overflow_pages = 0
        self._level_size = INITIAL_BUCKETS  # buckets at round start (2^L · B0)
        self._split_pointer = 0
        self._item_count = 0
        # Capacity in items one bucket comfortably holds, for the load factor.
        self._bucket_budget = max(1, page_capacity // 48)

    # -- addressing ---------------------------------------------------------------

    def _bucket_of(self, key: Any) -> int:
        h = stable_hash(key)
        index = h % self._level_size
        if index < self._split_pointer:
            index = h % (self._level_size * 2)
        return index

    # -- insert ---------------------------------------------------------------------

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert ``(key, value)``; duplicates kept as separate entries."""
        self._insert_into_bucket(self._bucket_of(key), key, value)
        self._item_count += 1
        load = self._item_count / (len(self._buckets) * self._bucket_budget)
        if load > SPLIT_LOAD_FACTOR:
            self._split_next()

    def _insert_into_bucket(self, bucket: int, key: Any, value: Any) -> None:
        page_id = self._buckets[bucket]
        need = _entry_bytes(key, value)
        while True:
            page: _BucketPage = self.buffer.fetch(page_id)
            if page.used_bytes + need <= self.page_capacity:
                page.keys.append(key)
                page.values.append(value)
                page.used_bytes += need
                self.buffer.mark_dirty(page_id)
                return
            if page.next_page is None:
                overflow = self.buffer.new_page(
                    _BucketPage(keys=[key], values=[value], used_bytes=need)
                )
                # Re-fetch: allocating may have evicted the bucket page.
                page = self.buffer.fetch(page_id)
                page.next_page = overflow
                self.buffer.mark_dirty(page_id)
                self._overflow_pages += 1
                return
            page_id = page.next_page

    # -- linear-hashing split ----------------------------------------------------------

    def _split_next(self) -> None:
        """Split the bucket at the split pointer (one bucket per call)."""
        victim = self._split_pointer
        new_index = len(self._buckets)
        self._buckets.append(self.buffer.new_page(_BucketPage()))
        self._split_pointer += 1
        if self._split_pointer == self._level_size:
            self._level_size *= 2
            self._split_pointer = 0

        # Collect the victim chain, then redistribute.
        entries: list[tuple[Any, Any]] = []
        page_id: int | None = self._buckets[victim]
        chain = []
        while page_id is not None:
            page = self.buffer.fetch(page_id)
            entries.extend(zip(page.keys, page.values))
            chain.append(page_id)
            page_id = page.next_page
        # Reset the victim to a single empty page; free its overflow pages.
        self.buffer.update(chain[0], _BucketPage())
        for overflow_id in chain[1:]:
            self.buffer.free_page(overflow_id)
            self._overflow_pages -= 1

        for key, value in entries:
            CPU_OPS.add(1)
            target = self._bucket_of(key)  # victim or new_index by construction
            self._insert_into_bucket(target, key, value)

    # -- search ----------------------------------------------------------------------

    def search(self, key: Any) -> list[Any]:
        """All values stored under exactly ``key``."""
        results = []
        page_id: int | None = self._buckets[self._bucket_of(key)]
        while page_id is not None:
            page: _BucketPage = self.buffer.fetch(page_id)
            CPU_OPS.add(len(page.keys))
            for stored, value in zip(page.keys, page.values):
                if stored == key:
                    results.append(value)
            page_id = page.next_page
        return results

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Every (key, value) pair, bucket by bucket (no order guarantee)."""
        for bucket_page in self._buckets:
            page_id: int | None = bucket_page
            while page_id is not None:
                page: _BucketPage = self.buffer.fetch(page_id)
                yield from zip(page.keys, page.values)
                page_id = page.next_page

    # -- the access-method contract (what ``TableIndex`` calls) -----------------------

    def scan(self, op: str, operand: Any) -> Iterator[Any]:
        """Values stored under ``operand``; equality is the only operator."""
        if op != "=":
            raise PlannerError(f"hash index cannot serve {op!r}")
        yield from self.search(operand)

    # -- delete -----------------------------------------------------------------------

    def delete(self, key: Any, value: Any = None) -> int:
        """Remove entries equal to ``key`` (and ``value`` when given)."""
        removed = 0
        page_id: int | None = self._buckets[self._bucket_of(key)]
        while page_id is not None:
            page: _BucketPage = self.buffer.fetch(page_id)
            kept = [
                (k, v)
                for k, v in zip(page.keys, page.values)
                if not (k == key and (value is None or v == value))
            ]
            if len(kept) != len(page.keys):
                removed += len(page.keys) - len(kept)
                page.keys = [k for k, _ in kept]
                page.values = [v for _, v in kept]
                page.used_bytes = sum(
                    _entry_bytes(k, v) for k, v in kept
                )
                self.buffer.mark_dirty(page_id)
            page_id = page.next_page
        if removed == 0:
            raise KeyNotFoundError(key)
        self._item_count -= removed
        return removed

    # -- statistics -------------------------------------------------------------------

    def __len__(self) -> int:
        return self._item_count

    @property
    def num_pages(self) -> int:
        return len(self._buckets) + self._overflow_pages

    @property
    def num_buckets(self) -> int:
        return len(self._buckets)

    @property
    def height(self) -> int:
        """Bucket access depth proxy for the cost model (directory + page)."""
        return 1

    page_height = height

    def check_invariants(self) -> None:
        """Every key must live in the bucket its hash addresses (test aid)."""
        for bucket, bucket_page in enumerate(self._buckets):
            page_id: int | None = bucket_page
            while page_id is not None:
                page: _BucketPage = self.buffer.fetch(page_id)
                for key in page.keys:
                    if self._bucket_of(key) != bucket:
                        raise AssertionError(
                            f"key {key!r} in bucket {bucket}, "
                            f"hashes to {self._bucket_of(key)}"
                        )
                page_id = page.next_page