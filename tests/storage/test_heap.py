"""Unit tests for HeapFile."""

import pytest

from repro.errors import StorageError
from repro.storage import BufferPool, DiskManager, HeapFile
from repro.storage.heap import TupleId
from repro.storage.page import PAGE_CAPACITY


@pytest.fixture
def heap(buffer) -> HeapFile:
    return HeapFile(buffer)


class TestInsertFetch:
    def test_insert_returns_tid_and_fetch_roundtrips(self, heap):
        tid = heap.insert(("alice", 1))
        assert heap.fetch(tid) == ("alice", 1)
        assert len(heap) == 1

    def test_many_inserts_fill_multiple_pages(self, heap):
        for i in range(2000):
            heap.insert(("row-%05d" % i, i))
        assert heap.num_pages > 1
        assert len(heap) == 2000

    def test_oversize_record_rejected(self, heap):
        with pytest.raises(StorageError):
            heap.insert("x" * (PAGE_CAPACITY + 1))

    def test_fetch_foreign_tid_raises(self, heap):
        heap.insert("a")
        with pytest.raises(StorageError):
            heap.fetch(TupleId(page_id=424242, slot=0))

    def test_fetch_out_of_range_slot_raises(self, heap):
        tid = heap.insert("a")
        with pytest.raises(StorageError):
            heap.fetch(TupleId(tid.page_id, 99))


class TestScan:
    def test_scan_yields_in_insert_order(self, heap):
        tids = [heap.insert(i) for i in range(50)]
        scanned = list(heap.scan())
        assert [t for t, _ in scanned] == tids
        assert [r for _, r in scanned] == list(range(50))

    def test_scan_skips_tombstones(self, heap):
        tids = [heap.insert(i) for i in range(10)]
        for tid in (tids[3], tids[7]):
            heap.mark_deleted(tid, 2)
            heap.reclaim(tid)
        assert [r for _, r in heap.scan()] == [0, 1, 2, 4, 5, 6, 8, 9]


class TestDeleteUpdate:
    def test_delete_returns_record(self, heap):
        tid = heap.insert("victim")
        assert heap.mark_deleted(tid, 2) == "victim"
        heap.reclaim(tid)
        assert heap.fetch(tid) is None
        assert len(heap) == 0

    def test_double_delete_raises(self, heap):
        tid = heap.insert("victim")
        heap.mark_deleted(tid, 2)
        heap.reclaim(tid)
        with pytest.raises(StorageError):
            heap.mark_deleted(tid, 3)

    def test_tids_stable_across_deletes(self, heap):
        tids = [heap.insert(i) for i in range(5)]
        heap.mark_deleted(tids[0], 2)
        heap.reclaim(tids[0])
        assert heap.fetch(tids[4]) == 4


class TestVacuumStats:
    def test_vacuum_stats_after_mass_delete(self, heap):
        tids = [heap.insert("word-%04d" % i) for i in range(3000)]
        for tid in tids[: len(tids) * 3 // 4]:
            heap.mark_deleted(tid, 2)
            heap.reclaim(tid)
        pages, needed = heap.vacuum_page_stats()
        assert pages == heap.num_pages
        assert needed < pages  # compaction would reclaim space

    def test_empty_heap(self, heap):
        assert heap.vacuum_page_stats() == (0, 0)
        assert list(heap.scan()) == []


class TestEvictionSafety:
    def test_heap_correct_under_tiny_pool(self, small_buffer):
        heap = HeapFile(small_buffer)
        tids = [heap.insert(("key-%05d" % i, i)) for i in range(1500)]
        # Data must survive eviction churn through the 4-frame pool.
        assert heap.fetch(tids[0]) == ("key-00000", 0)
        assert heap.fetch(tids[-1]) == ("key-01499", 1499)
        assert sum(1 for _ in heap.scan()) == 1500
