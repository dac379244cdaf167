"""Node reads go through the buffer pool and nothing else.

A node lives only in its page's buffer-pool frame, so a read is exactly one
pool fetch, and a page whose read fails (checksum, exhausted retries) is
never admitted: the next read goes back to the disk instead of serving
anything stale.
"""

from __future__ import annotations

import pytest

from repro.core.clustering import NodeStore
from repro.core.node import LeafNode, NodeRef
from repro.errors import IndexCorruptionError, PageChecksumError, TransientIOError
from repro.indexes import TrieIndex
from repro.resilience import corrupt_page
from repro.resilience.faults import FaultInjectingDiskManager, FaultPolicy
from repro.storage import BufferPool, DiskManager
from repro.workloads import random_words


def _fetches(pool: BufferPool) -> int:
    return pool.stats.hits + pool.stats.misses


class TestFailedReadsStayNonResident:
    def test_checksum_failure_leaves_page_non_resident(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("k", 1)]))
        buffer.clear()  # the image is on disk, the frame is gone
        corrupt_page(buffer.disk, ref.page_id, seed=5)
        for _ in range(2):  # a second read re-verifies, never serves a frame
            with pytest.raises(PageChecksumError):
                store.read(ref)
            assert ref.page_id not in set(buffer.resident_page_ids())

    def test_exhausted_retries_leave_page_non_resident(self):
        flaky = FaultInjectingDiskManager(DiskManager(), FaultPolicy(seed=3))
        pool = BufferPool(flaky, capacity=4, max_retries=1, retry_backoff=0.0)
        store = NodeStore(pool)
        ref = store.create(LeafNode(items=[("k", 1)]))
        pool.clear()
        flaky.policy = FaultPolicy(seed=3, read_error_rate=1.0)
        with pytest.raises(TransientIOError):
            store.read(ref)
        assert ref.page_id not in set(pool.resident_page_ids())
        # The device recovers: the next read misses to disk and succeeds.
        flaky.policy = FaultPolicy(seed=3)
        misses = pool.stats.misses
        assert store.read(ref).items == [("k", 1)]
        assert pool.stats.misses == misses + 1

    def test_retried_reads_under_a_flaky_disk_return_the_stored_nodes(self):
        policy = FaultPolicy(seed=17, read_error_rate=0.05)
        pool = BufferPool(
            FaultInjectingDiskManager(DiskManager(), policy),
            capacity=8,
            retry_backoff=0.0,
        )
        store = NodeStore(pool)
        refs = [
            store.create(LeafNode(items=[(f"w{i}" * 30, i)] * 10))
            for i in range(12)
        ]
        for ref in refs * 3:
            node = store.read(ref)
            assert node.items[0][1] == refs.index(ref)


class TestDanglingRefs:
    def test_freed_slot_raises(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("k", 1)]))
        store.free(ref)
        with pytest.raises(IndexCorruptionError):
            store.read(ref)

    def test_slot_past_the_page_raises(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("k", 1)]))
        with pytest.raises(IndexCorruptionError):
            store.read(NodeRef(ref.page_id, ref.slot + 1))


class TestOneFetchPerRead:
    @pytest.mark.parametrize("capacity", [2, 256])
    def test_each_read_is_one_pool_fetch(self, capacity):
        pool = BufferPool(DiskManager(), capacity=capacity)
        index = TrieIndex(pool, bucket_size=4)
        for i, word in enumerate(random_words(400, seed=77)):
            index.insert(word, i)
        store = index.store
        before = _fetches(pool)
        reads, stack = 0, [index.root]
        while stack:  # walk the whole tree, one read per node
            node = store.read(stack.pop())
            reads += 1
            if not node.is_leaf:
                stack.extend(e.child for e in node.entries if e.child)
        assert reads == store.num_nodes
        assert _fetches(pool) - before == reads

    def test_write_is_visible_to_the_next_read(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("k", 1)]))
        replacement = LeafNode(items=[("k", 1), ("k2", 2)])
        assert store.write(ref, replacement) == ref
        assert store.read(ref) is replacement
