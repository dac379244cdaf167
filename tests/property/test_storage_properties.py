"""Property-based tests for the storage substrate."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests import hypothesis_max_examples

from repro.storage import BufferPool, DiskManager, HeapFile

SETTINGS = settings(
    max_examples=hypothesis_max_examples(40),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

PAYLOADS = st.lists(
    st.one_of(
        st.integers(),
        st.text(max_size=20),
        st.tuples(st.text(max_size=8), st.integers()),
    ),
    min_size=1,
    max_size=60,
)


class TestBufferPoolTransparency:
    @SETTINGS
    @given(PAYLOADS, st.integers(min_value=1, max_value=8))
    def test_any_capacity_preserves_contents(self, payloads, capacity):
        """A buffer pool is a cache: capacity must never change contents."""
        pool = BufferPool(DiskManager(), capacity=capacity)
        ids = [pool.new_page(p) for p in payloads]
        # Interleave reads to shuffle LRU order.
        for pid in reversed(ids):
            pool.fetch(pid)
        for pid, expected in zip(ids, payloads):
            assert pool.fetch(pid) == expected

    @SETTINGS
    @given(PAYLOADS)
    def test_flush_then_cold_read_roundtrips(self, payloads):
        pool = BufferPool(DiskManager(), capacity=4)
        ids = [pool.new_page(p) for p in payloads]
        pool.clear()
        assert [pool.fetch(pid) for pid in ids] == payloads


class TestHeapProperties:
    @SETTINGS
    @given(PAYLOADS, st.integers(min_value=1, max_value=6))
    def test_scan_returns_live_records_in_order(self, records, capacity):
        heap = HeapFile(BufferPool(DiskManager(), capacity=capacity))
        tids = [heap.insert(r) for r in records]
        assert [r for _, r in heap.scan()] == records
        for tid, r in zip(tids, records):
            assert heap.fetch(tid) == r

    @SETTINGS
    @given(PAYLOADS, st.data())
    def test_deleted_subset_never_reappears(self, records, data):
        heap = HeapFile(BufferPool(DiskManager(), capacity=4))
        tids = [heap.insert(r) for r in records]
        victims = data.draw(
            st.sets(st.integers(0, len(records) - 1), max_size=len(records))
        )
        for i in victims:
            heap.mark_deleted(tids[i], 2)
            heap.reclaim(tids[i])
        survivors = [r for i, r in enumerate(records) if i not in victims]
        assert [r for _, r in heap.scan()] == survivors
        assert len(heap) == len(survivors)
