"""Unit tests for NodeStore placement and the repack algorithm."""

import pytest

from repro.core import Entry, InnerNode, LeafNode
from repro.core.clustering import NodeStore
from repro.errors import IndexCorruptionError
from repro.geometry.box import Box
from repro.indexes import (
    KDTreeIndex,
    PMRQuadtreeIndex,
    PointQuadtreeIndex,
    SuffixTreeIndex,
    TrieIndex,
)
from repro.resilience.check import spgist_check
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager
from repro.storage.page import PAGE_CAPACITY
from repro.workloads import random_points, random_segments, random_words


class TestNodeStoreBasics:
    def test_create_read_roundtrip(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("a", 1)]))
        assert store.read(ref).items == [("a", 1)]
        assert store.num_nodes == 1

    def test_children_cluster_on_parent_page(self, buffer):
        store = NodeStore(buffer)
        parent = store.create(InnerNode())
        child = store.create(LeafNode(items=[("a", 1)]), near=parent)
        assert child.page_id == parent.page_id

    def test_full_page_spills_to_new_page(self, buffer):
        store = NodeStore(buffer)
        big_items = [("x" * 200, i) for i in range(30)]  # ~6 KB leaf
        first = store.create(LeafNode(items=list(big_items)))
        second = store.create(LeafNode(items=list(big_items)), near=first)
        assert second.page_id != first.page_id
        assert store.num_pages == 2

    def test_write_in_place_when_it_fits(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("a", 1)]))
        node = store.read(ref)
        node.items.append(("b", 2))
        assert store.write(ref, node) == ref

    def test_write_relocates_on_overflow(self, buffer):
        store = NodeStore(buffer)
        anchor = store.create(LeafNode(items=[("pad" * 600, 0)]))  # ~7 KB
        small = store.create(LeafNode(items=[("a", 1)]), near=anchor)
        assert small.page_id == anchor.page_id
        node = store.read(small)
        node.items.extend(("grow" * 200, i) for i in range(12))  # ~9.6 KB total
        moved = store.write(small, node)
        assert moved != small
        assert store.read(moved).items[0] == ("a", 1)

    def test_oversize_single_node_allowed_alone(self, buffer):
        # A node bigger than a page models an overflow chain.
        store = NodeStore(buffer)
        ref = store.create(LeafNode(items=[("y" * 500, i) for i in range(30)]))
        node = store.read(ref)
        assert node.approx_bytes() > PAGE_CAPACITY
        assert store.write(ref, node) == ref

    def test_free_and_slot_reuse(self, buffer):
        store = NodeStore(buffer)
        a = store.create(LeafNode(items=[("a", 1)]))
        b = store.create(LeafNode(items=[("b", 2)]), near=a)
        store.free(a)
        assert store.num_nodes == 1
        c = store.create(LeafNode(items=[("c", 3)]), near=b)
        assert c == a  # tombstoned slot reused
        assert store.read(c).items == [("c", 3)]

    def test_double_free_raises(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode())
        store.free(ref)
        with pytest.raises(IndexCorruptionError):
            store.free(ref)

    def test_dangling_read_raises(self, buffer):
        store = NodeStore(buffer)
        ref = store.create(LeafNode())
        store.free(ref)
        with pytest.raises(IndexCorruptionError):
            store.read(ref)

    def test_fill_factor_bounds(self, buffer):
        store = NodeStore(buffer)
        assert store.fill_factor() == 0.0
        for i in range(100):
            store.create(LeafNode(items=[("w%03d" % i, i)]))
        assert 0.0 < store.fill_factor() <= 1.0


class TestRepack:
    def _build_trie(self, buffer, n=400, bucket=2) -> TrieIndex:
        trie = TrieIndex(buffer, bucket_size=bucket)
        for i, w in enumerate(random_words(n, seed=5)):
            trie.insert(w, i)
        return trie

    def test_repack_preserves_contents(self, buffer):
        trie = self._build_trie(buffer)
        before = sorted(trie.search_prefix(""))
        trie.repack()
        assert sorted(trie.search_prefix("")) == before

    def test_repack_reduces_page_height(self, buffer):
        trie = self._build_trie(buffer)
        before = trie.statistics()
        trie.repack()
        after = trie.statistics()
        assert after.max_page_height <= before.max_page_height
        assert after.items == before.items
        assert after.total_nodes == before.total_nodes

    def test_repack_keeps_pages_reasonably_full(self, buffer):
        trie = self._build_trie(buffer)
        trie.repack()
        stats = trie.statistics()
        if stats.pages > 1:
            assert stats.fill_factor > 0.5

    def test_repack_frees_old_pages(self, buffer):
        trie = self._build_trie(buffer)
        pages_before = buffer.disk.num_pages
        trie.repack()
        # Old node pages released; page count should not balloon.
        assert buffer.disk.num_pages <= pages_before + 2

    def test_repack_empty_tree_is_noop(self, buffer):
        trie = TrieIndex(buffer)
        trie.repack()
        assert trie.root is None

    def test_repack_single_leaf(self, buffer):
        trie = TrieIndex(buffer)
        trie.insert("one", 1)
        trie.repack()
        assert trie.search_equal("one") == [("one", 1)]

    def test_repack_under_tiny_pool(self, small_buffer):
        # Eviction churn during repack must not corrupt the tree.
        trie = TrieIndex(small_buffer, bucket_size=2)
        words = random_words(300, seed=6)
        for i, w in enumerate(words):
            trie.insert(w, i)
        trie.repack()
        probe = words[17]
        expected = sorted(i for i, w in enumerate(words) if w == probe)
        assert sorted(v for _, v in trie.search_equal(probe)) == expected


WORLD = Box(0.0, 0.0, 100.0, 100.0)

#: The five paper opclasses: name -> (index factory, keys).
OPCLASSES = {
    "trie": (
        lambda pool: TrieIndex(pool, bucket_size=4),
        lambda: random_words(1500, seed=11),
    ),
    "suffix": (
        lambda pool: SuffixTreeIndex(pool, bucket_size=4),
        lambda: random_words(800, seed=12),
    ),
    "kdtree": (KDTreeIndex, lambda: random_points(1500, seed=13)),
    "pquad": (
        lambda pool: PointQuadtreeIndex(pool, bucket_size=4),
        lambda: random_points(1500, seed=14),
    ),
    "pmr": (
        lambda pool: PMRQuadtreeIndex(pool, WORLD, threshold=8),
        lambda: random_segments(600, seed=15),
    ),
}


def _layout(index) -> list[tuple]:
    """``(path from root, page rank, slot)`` of every node, sorted.

    Page *rank* (position among the store's sorted page ids) rather than
    the raw id: two builds allocate different ids for the same layout.
    """
    rank = {p: i for i, p in enumerate(sorted(index.store.page_ids))}
    out, stack = [], [(index.root, ())]
    while stack:
        ref, path = stack.pop()
        out.append((path, rank[ref.page_id], ref.slot))
        node = index.store.read(ref)
        if isinstance(node, InnerNode):
            stack.extend(
                (e.child, path + (i,))
                for i, e in enumerate(node.entries)
                if e.child is not None
            )
    return sorted(out)


class TestOnePacker:
    """Bulk build, ``repack()`` and ``repack_online()`` share one packer."""

    @pytest.mark.parametrize("kind", OPCLASSES)
    def test_bulk_build_layout_equals_build_then_repack(self, kind):
        make, keys = OPCLASSES[kind]
        items = [(key, i) for i, key in enumerate(keys())]
        packed = make(BufferPool(DiskManager(), capacity=256))
        packed.bulk_build(items, cluster=True)
        repacked = make(BufferPool(DiskManager(), capacity=256))
        repacked.build(items, cluster=False)
        repacked.repack()
        a, b = packed.statistics(), repacked.statistics()
        assert a.pages == b.pages
        assert a.max_page_height == b.max_page_height
        assert _layout(packed) == _layout(repacked)

    @pytest.mark.parametrize("frames", [2, 4, 8])
    @pytest.mark.parametrize("kind", ["kdtree", "trie"])
    def test_repack_survives_pools_smaller_than_the_subtree(self, kind, frames):
        # Every read while a page is being assembled may evict the
        # destination page; the materializer must not hold its payload
        # across them.
        make, _ = OPCLASSES[kind]
        keys = (
            random_points(600, seed=21)
            if kind == "kdtree"
            else random_words(2000, seed=22)
        )
        index = make(BufferPool(DiskManager(), capacity=frames))
        index.build([(key, i) for i, key in enumerate(keys)], cluster=False)
        find = index.search_point if kind == "kdtree" else index.search_equal

        def assert_intact():
            report = spgist_check(index)
            assert report.ok, report.describe()
            for i, key in enumerate(keys):
                assert (key, i) in find(key)

        for _ in range(3):
            index.repack_online(max_subtrees=1)  # bounded background steps
        assert_intact()
        index.repack_online()  # the full REPACK INDEX pass
        assert_intact()
        index.repack()
        assert_intact()
