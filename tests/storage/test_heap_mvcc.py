"""MVCC-facing HeapFile primitives: version stamps, reclaim, truncation.

The heap stays transaction-agnostic — it stores xmin/xmax stamps and
offers ``mark_deleted``/``reclaim`` as mechanisms; visibility policy
lives in :mod:`repro.engine.txn`. These tests pin the mechanisms,
including the accounting invariants (``len``, ``used_bytes``,
free-slot bookkeeping) that the delete/reinsert-cycle audit fixed.
"""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, DiskManager, HeapFile
from repro.storage.heap import XID_FROZEN, XID_INVALID, TupleId


@pytest.fixture
def heap(buffer) -> HeapFile:
    return HeapFile(buffer)


class TestVersionStamps:
    def test_default_insert_is_frozen(self, heap):
        tid = heap.insert(("row", 1))
        tup = heap.tuple_at(tid)
        assert tup.xmin == XID_FROZEN
        assert tup.xmax == XID_INVALID

    def test_insert_with_xmin(self, heap):
        tid = heap.insert(("row", 1), xmin=7)
        assert heap.tuple_at(tid).xmin == 7

    def test_mark_deleted_stamps_xmax_keeps_version(self, heap):
        tid = heap.insert(("row", 1))
        record = heap.mark_deleted(tid, 9)
        assert record == ("row", 1)
        tup = heap.tuple_at(tid)
        assert tup.xmax == 9
        assert heap.fetch(tid) == ("row", 1)  # version still stored
        assert len(heap) == 1

    def test_mark_deleted_on_tombstone_raises(self, heap):
        tid = heap.insert(("row", 1))
        heap.mark_deleted(tid, 8)
        heap.reclaim(tid)
        with pytest.raises(StorageError):
            heap.mark_deleted(tid, 9)

    def test_scan_versions_exposes_stamps(self, heap):
        a = heap.insert(("a", 1), xmin=5)
        heap.insert(("b", 2))
        heap.mark_deleted(a, 6)
        stamps = {
            tup.record: (tup.xmin, tup.xmax)
            for _tid, tup in heap.scan_versions()
        }
        assert stamps == {
            ("a", 1): (5, 6),
            ("b", 2): (XID_FROZEN, XID_INVALID),
        }


class TestReclaimAndReuse:
    def test_reclaim_frees_slot_and_count(self, heap):
        tid = heap.insert(("row", 1))
        heap.mark_deleted(tid, 9)
        heap.reclaim(tid)
        assert len(heap) == 0
        assert heap.free_slot_count == 1
        assert heap.tuple_at(tid) is None

    def test_reclaim_is_idempotent(self, heap):
        tid = heap.insert(("row", 1))
        heap.reclaim(tid)
        heap.reclaim(tid)
        assert heap.free_slot_count == 1
        assert len(heap) == 0

    def test_insert_reuses_reclaimed_slot(self, heap):
        tids = [heap.insert((f"row-{i}", i)) for i in range(5)]
        heap.reclaim(tids[2])
        new_tid = heap.insert(("fresh", 99), xmin=4)
        assert new_tid == tids[2]
        assert heap.free_slot_count == 0
        assert heap.fetch(new_tid) == ("fresh", 99)
        assert len(heap) == 5

    def test_accounting_survives_delete_reinsert_cycles(self, heap):
        """used_bytes/len never drift over repeated churn."""
        for cycle in range(10):
            tids = [heap.insert((f"c{cycle}-r{i}", i)) for i in range(50)]
            for tid in tids:
                heap.mark_deleted(tid, 9)
            for tid in tids:
                heap.reclaim(tid)
            assert len(heap) == 0
        pages, pages_needed = heap.vacuum_page_stats()
        assert pages_needed == 0
        heap.truncate_trailing_empty_pages()
        assert heap.num_pages == 0
        assert heap.free_slot_count == 0


class TestTruncation:
    def test_trailing_empty_pages_released(self, heap):
        tids = [heap.insert(("x" * 200, i)) for i in range(200)]
        assert heap.num_pages > 2
        keep = heap.num_pages
        # Empty out everything after page 0.
        for tid in tids:
            if tid.page_id != tids[0].page_id:
                heap.reclaim(tid)
        released = heap.truncate_trailing_empty_pages()
        assert released == keep - 1
        assert heap.num_pages == 1
        # Free slots on truncated pages were dropped from the free list.
        assert all(
            t.page_id == tids[0].page_id for t in heap._free_slots
        )

    def test_interior_empty_page_stays(self, heap):
        tids = [heap.insert(("x" * 200, i)) for i in range(200)]
        first_page = tids[0].page_id
        last_page = tids[-1].page_id
        for tid in tids:
            if tid.page_id == first_page:
                heap.reclaim(tid)
        assert last_page != first_page
        assert heap.truncate_trailing_empty_pages() == 0
        # Earlier TIDs stay addressable (None, but not an error).
        assert heap.tuple_at(tids[0]) is None

    def test_insert_skips_free_slot_on_truncated_page(self, heap):
        tids = [heap.insert(("x" * 200, i)) for i in range(200)]
        for tid in tids:
            heap.reclaim(tid)
        heap.truncate_trailing_empty_pages()
        assert heap.num_pages == 0
        tid = heap.insert(("fresh", 1))
        assert heap.fetch(tid) == ("fresh", 1)
        assert len(heap) == 1
