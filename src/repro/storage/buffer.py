"""LRU buffer pool between the access methods and the simulated disk.

All index and heap code fetches pages through a pool; a miss costs one
physical read on the :class:`DiskManager`. Benchmarks size the pool well
below the working set so the miss counts track the paper's disk-resident
setting, and an ablation (D5 in DESIGN.md) sweeps the pool size.

The pool is the only cache, as PostgreSQL's shared buffers are. A resident
frame holds the page's deserialized payload (for node pages, the live
``InnerNode``/``LeafNode`` objects), so a warm node read is one
:meth:`BufferPool.fetch` and nothing above the pool keeps a second copy.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.errors import BufferPoolError, TransientIOError
from repro.obs import METRICS
from repro.settings import SETTINGS
from repro.storage.disk import DiskManager
from repro.storage.page import Page

#: Default number of 8 KB frames (64 frames = 512 KB cache).
DEFAULT_POOL_SIZE = 64

# Observability families, bound once; the hit and miss counters are bound to
# their unlabeled child, so every fetch (one per node read) pays one counter
# call instead of two. These mirror BufferStats exactly — the registry
# delta of any operation must reconcile with the pool's own counters, which
# the explain/obs tests assert.
_OBS_HITS = METRICS.counter(
    "buffer_hits_total", "Buffer pool fetches served from a resident frame"
).labels()
_OBS_MISSES = METRICS.counter(
    "buffer_misses_total", "Buffer pool fetches that went to disk"
).labels()
_OBS_EVICTIONS = METRICS.counter(
    "buffer_evictions_total", "Frames evicted to make room in the pool"
)
_OBS_WRITEBACKS = METRICS.counter(
    "buffer_dirty_writebacks_total", "Dirty frames written back to disk"
)
_OBS_RETRIES = METRICS.counter(
    "buffer_retries_total",
    "Transient disk faults absorbed by bounded retry",
    labels=("op",),
)
_OBS_READ_RETRIES = _OBS_RETRIES.labels("read")
_OBS_WRITE_RETRIES = _OBS_RETRIES.labels("write")

#: The bounded-retry policy for transient disk faults lives in
#: :mod:`repro.settings` (``disk_max_retries`` / ``disk_retry_backoff``);
#: constructor ``None`` defaults resolve from there at build time.


@dataclass
class BufferStats:
    """Cumulative cache statistics for one buffer pool.

    Misses are classified by access pattern: a miss on the page directly
    following the previous missed page is *sequential* (cheap on spinning
    disks, ``seq_page_cost``), anything else is *random*
    (``random_page_cost``). The split is what makes B+-tree leaf-chain
    scans cheaper than equal-count scattered reads, as in PostgreSQL's
    cost model.
    """

    hits: int = 0
    misses: int = 0
    seq_misses: int = 0
    random_misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0
    read_retries: int = 0
    write_retries: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def retries(self) -> int:
        """Total transient-fault retries (reads + write-backs)."""
        return self.read_retries + self.write_retries

    def snapshot(self) -> "BufferStats":
        """A copy of the current counters."""
        return BufferStats(
            self.hits,
            self.misses,
            self.seq_misses,
            self.random_misses,
            self.evictions,
            self.dirty_writebacks,
            self.read_retries,
            self.write_retries,
        )

    def delta(self, earlier: "BufferStats") -> "BufferStats":
        """Counters accumulated since ``earlier`` (an older snapshot)."""
        return BufferStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            seq_misses=self.seq_misses - earlier.seq_misses,
            random_misses=self.random_misses - earlier.random_misses,
            evictions=self.evictions - earlier.evictions,
            dirty_writebacks=self.dirty_writebacks - earlier.dirty_writebacks,
            read_retries=self.read_retries - earlier.read_retries,
            write_retries=self.write_retries - earlier.write_retries,
        )


class BufferPool:
    """A fixed-capacity LRU cache of deserialized pages.

    Mutation protocol: fetch the page, mutate its payload, then call
    :meth:`mark_dirty` before the next fetch that could evict it. The
    convenience :meth:`update` wraps that pattern. Pinned pages are never
    evicted; pins are only used internally by multi-page operations.
    """

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_POOL_SIZE,
        max_retries: int | None = None,
        retry_backoff: float | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("buffer pool capacity must be >= 1")
        self.disk = disk
        self.capacity = capacity
        self.max_retries = (
            SETTINGS.disk_max_retries if max_retries is None else max_retries
        )
        self.retry_backoff = (
            SETTINGS.disk_retry_backoff if retry_backoff is None else retry_backoff
        )
        self.stats = BufferStats()
        self._frames: OrderedDict[int, Page] = OrderedDict()
        self._last_missed_page: int | None = None

    # -- page lifecycle ------------------------------------------------------

    def new_page(self, payload: Any) -> int:
        """Allocate a disk page, cache it dirty, and return its id."""
        page_id = self.disk.allocate_page()
        self._admit(Page(page_id=page_id, payload=payload, dirty=True))
        return page_id

    def free_page(self, page_id: int) -> None:
        """Drop a page from the pool and the disk (no write-back)."""
        self._frames.pop(page_id, None)
        self.disk.deallocate_page(page_id)

    # -- access --------------------------------------------------------------

    def fetch(self, page_id: int) -> Any:
        """Return the payload of ``page_id``, reading from disk on a miss.

        Every node read of every tree descent is one call here, so a
        resident page is served without any further call. A page is
        admitted only after its read (checksum and retries included)
        succeeds: a failed read leaves it non-resident.
        """
        page = self._frames.get(page_id)
        if page is not None:
            self.stats.hits += 1
            _OBS_HITS.inc()
            self._frames.move_to_end(page_id)
            return page.payload
        self.stats.misses += 1
        _OBS_MISSES.inc()
        if self._last_missed_page is not None and page_id == self._last_missed_page + 1:
            self.stats.seq_misses += 1
        else:
            self.stats.random_misses += 1
        self._last_missed_page = page_id
        payload = self._with_retry(
            lambda: self.disk.read_page(page_id), "read_retries"
        )
        self._admit(Page(page_id=page_id, payload=payload))
        return payload

    def _fetch_page(self, page_id: int) -> Page:
        """:meth:`fetch`, for callers that need the frame itself."""
        self.fetch(page_id)
        return self._frames[page_id]

    def _with_retry(self, operation: Callable[[], Any], counter: str) -> Any:
        """Run a disk operation, retrying transient faults with backoff.

        Retries only :class:`~repro.errors.TransientIOError` (up to
        ``max_retries`` times, exponential backoff); permanent faults,
        checksum failures, and missing pages propagate immediately. The
        final failure re-raises the transient error for the caller to
        surface as a typed storage failure.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except TransientIOError:
                if attempt >= self.max_retries:
                    raise
                setattr(self.stats, counter, getattr(self.stats, counter) + 1)
                if counter == "read_retries":
                    _OBS_READ_RETRIES.inc()
                else:
                    _OBS_WRITE_RETRIES.inc()
                if self.retry_backoff:
                    time.sleep(self.retry_backoff * (2**attempt))
                attempt += 1

    def mark_dirty(self, page_id: int) -> None:
        """Record that the cached payload of ``page_id`` was mutated."""
        page = self._frames.get(page_id)
        if page is None:
            raise BufferPoolError(
                f"mark_dirty({page_id}) on a page not resident in the pool; "
                "mutate pages between fetch and the next eviction point"
            )
        page.dirty = True

    def update(self, page_id: int, payload: Any) -> None:
        """Replace the payload of ``page_id`` and mark it dirty."""
        page = self._fetch_page(page_id)
        page.payload = payload
        page.dirty = True

    def pin(self, page_id: int) -> None:
        """Protect a resident page from eviction until :meth:`unpin`."""
        self._fetch_page(page_id).pin_count += 1

    def unpin(self, page_id: int) -> None:
        """Release one pin taken with :meth:`pin`."""
        page = self._frames.get(page_id)
        if page is None or page.pin_count <= 0:
            raise BufferPoolError(f"unpin({page_id}) without a matching pin")
        page.pin_count -= 1

    # -- maintenance -----------------------------------------------------------

    def flush_all(self) -> None:
        """Write back every dirty resident page (checkpoint)."""
        for page in self._frames.values():
            if page.dirty:
                self._with_retry(
                    lambda p=page: self.disk.write_page(p.page_id, p.payload),
                    "write_retries",
                )
                page.dirty = False
                self.stats.dirty_writebacks += 1
                _OBS_WRITEBACKS.inc()

    def clear(self) -> None:
        """Flush then empty the pool — simulates a cold cache."""
        self.flush_all()
        self._frames.clear()

    def resident_page_ids(self) -> Iterator[int]:
        """Page ids currently cached, in LRU order (oldest first)."""
        return iter(self._frames.keys())

    @property
    def resident_count(self) -> int:
        return len(self._frames)

    def reset_stats(self) -> None:
        """Zero the cache counters (page contents untouched)."""
        self.stats = BufferStats()

    # -- internals -------------------------------------------------------------

    def _admit(self, page: Page) -> None:
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)

    def _evict_one(self) -> None:
        # O(1) victim selection: pop the LRU head; a pinned head is rotated
        # to the MRU end (a pin means "in use", which is recency), so the
        # loop touches each frame at most once and the common case — an
        # unpinned head — costs a single dict operation regardless of pool
        # size. The micro-benchmark in tests/storage/test_buffer_perf.py
        # pins this flatness.
        victim_id = victim = None
        for _ in range(len(self._frames)):
            page_id = next(iter(self._frames))
            page = self._frames[page_id]
            if page.pin_count == 0:
                victim_id, victim = page_id, page
                break
            self._frames.move_to_end(page_id)
        if victim is None:
            raise BufferPoolError("all buffer frames are pinned; cannot evict")
        if victim.dirty:
            self._with_retry(
                lambda: self.disk.write_page(victim_id, victim.payload),
                "write_retries",
            )
            self.stats.dirty_writebacks += 1
            _OBS_WRITEBACKS.inc()
        del self._frames[victim_id]
        self.stats.evictions += 1
        _OBS_EVICTIONS.inc()
