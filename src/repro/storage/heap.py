"""Heap file: the PostgreSQL heap access method analogue.

Tables store their tuples in a heap file; indexes store ``TupleId`` pointers
back into it. A sequential scan walks every page in allocation order — this
is the baseline the suffix tree is compared against in Figure 16.

Every slot holds a :class:`HeapTuple` — the record plus its MVCC header
(``xmin``/``xmax`` version stamps, the PostgreSQL tuple-header analogue;
``ITEM_OVERHEAD`` models its on-page cost). The heap itself is
transaction-agnostic: it stores and stamps versions, while visibility
decisions live in :mod:`repro.engine.txn` and are applied by the table and
executor layers. A delete takes two steps:

- :meth:`mark_deleted` — the MVCC delete: stamps ``xmax`` and leaves the
  version in place for older snapshots;
- :meth:`reclaim` — VACUUM's primitive: tombstones a version proven dead
  and records the slot for reuse by later inserts.

Slot numbers stay stable while a tuple is live, so TupleIds in indexes
remain valid; a reclaimed slot may be reused only after every index entry
pointing at it has been removed (the table-level VACUUM guarantees this,
exactly as PostgreSQL reuses line pointers only after ``ambulkdelete``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.costmodel import CPU_OPS
from repro.errors import StorageError
from repro.storage.buffer import BufferPool
from repro.storage.page import ITEM_OVERHEAD, PAGE_CAPACITY, approx_size

#: MVCC sentinels, duplicated from :mod:`repro.engine.txn` to keep the
#: storage layer import-independent of the engine (same values, one wire
#: meaning: 0 = "no transaction", 1 = "frozen, visible to everyone").
XID_INVALID = 0
XID_FROZEN = 1


@dataclass(frozen=True, slots=True, order=True)
class TupleId:
    """Physical tuple address: (page id, slot within page)."""

    page_id: int
    slot: int


@dataclass(slots=True)
class HeapTuple:
    """One stored version: the record plus its MVCC header."""

    record: Any
    xmin: int = XID_FROZEN
    xmax: int = XID_INVALID


@dataclass
class _HeapPagePayload:
    """On-page representation: a slot array plus a byte budget."""

    slots: list[HeapTuple | None] = field(default_factory=list)
    used_bytes: int = 0

    def live_count(self) -> int:
        return sum(1 for item in self.slots if item is not None)


class HeapFile:
    """An append-oriented, versioned tuple store with slot-level deletes.

    Inserts fill reclaimed slots first, then the last page until its byte
    budget is exhausted, then allocate a new page. VACUUM (driven from the
    table layer) reclaims dead versions, frees their slots for reuse, and
    truncates trailing all-empty pages so ``num_pages`` can shrink again.
    """

    def __init__(self, buffer: BufferPool) -> None:
        self.buffer = buffer
        self._page_ids: list[int] = []
        self._page_id_set: set[int] = set()
        self._tuple_count = 0
        #: Slots reclaimed by vacuum, reusable by insert (LIFO). The set
        #: mirrors the list for O(1) duplicate suppression.
        self._free_slots: list[TupleId] = []
        self._free_slot_set: set[TupleId] = set()
        #: Grow-only per-page interning of TupleId objects. Addresses are
        #: immutable and repeat on every scan, so pages share one list —
        #: scans index it instead of constructing a TupleId per slot.
        self._tid_lists: dict[int, list[TupleId]] = {}

    # -- mutation ---------------------------------------------------------------

    def insert(self, record: Any, xmin: int = XID_FROZEN) -> TupleId:
        """Store a new version of ``record`` and return its address.

        ``xmin`` stamps the inserting transaction; the default frozen xid
        keeps non-transactional callers' tuples visible to every snapshot.
        """
        need = approx_size(record) + ITEM_OVERHEAD
        if need > PAGE_CAPACITY:
            raise StorageError(
                f"record of ~{need} bytes exceeds page capacity {PAGE_CAPACITY}"
            )
        tup = HeapTuple(record=record, xmin=xmin)
        # Reclaimed slots first (vacuum made them index-entry-free).
        for _ in range(len(self._free_slots)):
            tid = self._free_slots.pop()
            self._free_slot_set.discard(tid)
            if tid.page_id not in self._page_id_set:
                continue  # its page was truncated away
            payload: _HeapPagePayload = self.buffer.fetch(tid.page_id)
            if payload.used_bytes + need <= PAGE_CAPACITY:
                payload.slots[tid.slot] = tup
                payload.used_bytes += need
                self.buffer.mark_dirty(tid.page_id)
                self._tuple_count += 1
                return tid
            self._free_slots.insert(0, tid)  # didn't fit; retry later
            self._free_slot_set.add(tid)
            break
        if self._page_ids:
            last_id = self._page_ids[-1]
            payload = self.buffer.fetch(last_id)
            if payload.used_bytes + need <= PAGE_CAPACITY:
                payload.slots.append(tup)
                payload.used_bytes += need
                self.buffer.mark_dirty(last_id)
                self._tuple_count += 1
                return TupleId(last_id, len(payload.slots) - 1)
        payload = _HeapPagePayload(slots=[tup], used_bytes=need)
        page_id = self.buffer.new_page(payload)
        self._page_ids.append(page_id)
        self._page_id_set.add(page_id)
        self._tuple_count += 1
        return TupleId(page_id, 0)

    def mark_deleted(self, tid: TupleId, xid: int) -> Any:
        """MVCC delete: stamp ``xmax = xid``; the version stays in place.

        Older snapshots (and the deleter's own rollback) can still see it;
        VACUUM reclaims it once it is dead to every snapshot. Returns the
        record. Conflict policy (who may overwrite a prior xmax) is decided
        by the caller — the heap only refuses tombstoned slots.
        """
        tup = self.tuple_at(tid)
        if tup is None:
            raise StorageError(f"tuple {tid} is already deleted")
        tup.xmax = xid
        self.buffer.mark_dirty(tid.page_id)
        return tup.record

    def reclaim(self, tid: TupleId) -> None:
        """VACUUM primitive: free a dead version's slot for reuse.

        Must only be called after every index entry pointing at ``tid``
        has been removed — the slot may be handed to a brand-new tuple by
        the next insert.
        """
        tup = self.tuple_at(tid)
        payload: _HeapPagePayload = self.buffer.fetch(tid.page_id)
        if tup is not None:
            payload.slots[tid.slot] = None
            payload.used_bytes -= approx_size(tup.record) + ITEM_OVERHEAD
            self._tuple_count -= 1
            self.buffer.mark_dirty(tid.page_id)
        if tid not in self._free_slot_set:
            self._free_slots.append(tid)
            self._free_slot_set.add(tid)

    def truncate_trailing_empty_pages(self) -> int:
        """Drop all-empty pages from the tail (PostgreSQL's lazy truncate).

        Only trailing pages can go — earlier TupleIds must stay valid.
        Returns the number of pages released.
        """
        released = 0
        while self._page_ids:
            page_id = self._page_ids[-1]
            payload: _HeapPagePayload = self.buffer.fetch(page_id)
            if payload.live_count():
                break
            self._page_ids.pop()
            self._page_id_set.discard(page_id)
            self._tid_lists.pop(page_id, None)
            self.buffer.free_page(page_id)
            released += 1
        if released:
            self._free_slots = [
                tid for tid in self._free_slots if tid.page_id in self._page_id_set
            ]
            self._free_slot_set = set(self._free_slots)
        return released

    # -- access -------------------------------------------------------------------

    def tuple_at(self, tid: TupleId) -> HeapTuple | None:
        """The stored version at ``tid`` with its MVCC header (None when
        tombstoned). Raises for addresses outside this heap."""
        if tid.page_id not in self._page_id_set:
            raise StorageError(f"tuple {tid} does not belong to this heap")
        payload: _HeapPagePayload = self.buffer.fetch(tid.page_id)
        if tid.slot >= len(payload.slots):
            raise StorageError(f"tuple {tid} slot out of range")
        return payload.slots[tid.slot]

    def fetch(self, tid: TupleId) -> Any:
        """Return the record at ``tid`` (None when tombstoned).

        Version-blind: any stored version's record is returned, whatever
        its stamps say. Snapshot-aware callers go through
        :meth:`repro.engine.table.Table.fetch`.
        """
        tup = self.tuple_at(tid)
        return None if tup is None else tup.record

    def scan(self) -> Iterator[tuple[TupleId, Any]]:
        """Yield every stored version's record in physical order.

        Version-blind (all occupied slots, whatever their stamps): this is
        what index builds and VACUUM want. Snapshot-consistent reads go
        through :meth:`repro.engine.table.Table.scan`, which filters these
        versions by visibility.
        """
        for tid, tup in self.scan_versions():
            yield tid, tup.record

    def scan_versions(self) -> Iterator[tuple[TupleId, HeapTuple]]:
        """Yield every occupied slot with its MVCC header, physical order."""
        for page in self.scan_version_pages():
            yield from page

    def scan_version_pages(self) -> Iterator[list[tuple[TupleId, HeapTuple]]]:
        """Yield occupied slots one *page* at a time, physical order.

        The batch-executor primitive: each yielded list is every live
        version of one heap page, built with a single buffer fetch and one
        list pass — callers apply visibility and predicates over the whole
        array instead of resuming a generator per tuple.
        """
        for page_id in self._page_ids:
            payload: _HeapPagePayload = self.buffer.fetch(page_id)
            page = [
                (tid, tup)
                for tid, tup in zip(
                    self._interned_tids(page_id, len(payload.slots)),
                    payload.slots,
                )
                if tup is not None
            ]
            CPU_OPS.add(len(page))
            yield page

    def _interned_tids(self, page_id: int, count: int) -> list[TupleId]:
        """The shared, grow-only ``[TupleId(page_id, 0..count)]`` list."""
        tids = self._tid_lists.get(page_id)
        if tids is None:
            tids = self._tid_lists[page_id] = []
        while len(tids) < count:
            tids.append(TupleId(page_id, len(tids)))
        return tids

    # -- statistics -------------------------------------------------------------

    def __len__(self) -> int:
        return self._tuple_count

    @property
    def num_pages(self) -> int:
        return len(self._page_ids)

    @property
    def free_slot_count(self) -> int:
        """Reclaimed slots currently available for reuse."""
        return len(self._free_slots)

    def vacuum_page_stats(self) -> tuple[int, int]:
        """Return ``(pages, pages_needed_after_compaction)`` for reporting.

        Recomputed from the slots themselves rather than the incremental
        ``used_bytes`` counters, so the report is drift-proof: any
        accounting skew left by delete/reinsert cycles is also repaired
        in place (the audit-and-heal the VACUUM reconciliation relies on).
        """
        live_bytes = 0
        for page_id in self._page_ids:
            payload: _HeapPagePayload = self.buffer.fetch(page_id)
            actual = sum(
                approx_size(tup.record) + ITEM_OVERHEAD
                for tup in payload.slots
                if tup is not None
            )
            if actual != payload.used_bytes:
                payload.used_bytes = actual  # heal the counter drift
                self.buffer.mark_dirty(page_id)
            live_bytes += actual
        needed = (live_bytes + PAGE_CAPACITY - 1) // PAGE_CAPACITY if live_bytes else 0
        return len(self._page_ids), needed
