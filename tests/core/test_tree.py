"""Core-engine tests with a minimal toy instantiation.

The toy index is a one-dimensional binary partition tree over integers
(node predicate = pivot, entries "lo"/"hi"). It exists to prove the
internal methods are instantiation-agnostic and to exercise engine paths
(spills, resolution, NodeShrink variants) in isolation from the real
index types.
"""

from __future__ import annotations

from typing import Any, Sequence

import pytest

from repro.core import (
    AddEntry,
    BLANK,
    Descend,
    PathShrink,
    PickSplitResult,
    Query,
    SPGiSTConfig,
    SPGiSTIndex,
)
from repro.core.external import ChooseResult, ExternalMethods
from repro.errors import KeyNotFoundError, PlannerError

LO, HI = "lo", "hi"


class ToyBinaryMethods(ExternalMethods):
    """Binary partition tree over ints: pivot at node, lo/hi entries."""

    supported_operators = ("=", "<=range=>")
    equality_operator = "="

    def __init__(self, bucket_size: int = 4, node_shrink: bool = True,
                 resolution: int = 0) -> None:
        self._config = SPGiSTConfig(
            node_predicate="lo/hi/blank",
            key_type="int",
            num_space_partitions=2,
            resolution=resolution,
            path_shrink=PathShrink.NEVER_SHRINK,
            node_shrink=node_shrink,
            bucket_size=bucket_size,
        )

    def get_parameters(self) -> SPGiSTConfig:
        return self._config

    def choose(self, node_predicate: Any, entries: Sequence[Any], key: Any,
               level: int) -> ChooseResult:
        side = LO if key < node_predicate else HI
        for index, predicate in enumerate(entries):
            if predicate == side:
                return Descend(index)
        return AddEntry(side)

    def picksplit(self, items, level, parent_predicate=None) -> PickSplitResult:
        keys = sorted(key for key, _ in items)
        pivot = keys[len(keys) // 2]
        if pivot == keys[0] == keys[-1]:  # all identical: inseparable
            return PickSplitResult(pivot, [(HI, list(items))], progress=False)
        if pivot == keys[0]:  # duplicates of the minimum: shift pivot up
            pivot = next(k for k in keys if k > pivot)
        lo = [(k, v) for k, v in items if k < pivot]
        hi = [(k, v) for k, v in items if k >= pivot]
        return PickSplitResult(pivot, [(LO, lo), (HI, hi)])

    def consistent(self, node_predicate, entry_predicate, query: Query,
                   level: int) -> bool:
        if query.op == "=":
            if entry_predicate == LO:
                return query.operand < node_predicate
            return query.operand >= node_predicate
        lo, hi = query.operand
        if entry_predicate == LO:
            return lo < node_predicate
        return hi >= node_predicate

    def leaf_consistent(self, key, query: Query, level: int) -> bool:
        if query.op == "=":
            return key == query.operand
        lo, hi = query.operand
        return lo <= key <= hi

    def nn_inner_distance(self, query, node_predicate, entry_predicate,
                          level, parent_state):
        # 1-D MINDIST: zero on the side containing the query.
        if entry_predicate == LO:
            return (0.0 if query < node_predicate
                    else float(query - node_predicate)), None
        return (0.0 if query >= node_predicate
                else float(node_predicate - query)), None

    def nn_leaf_distance(self, query, key):
        return float(abs(key - query))


def make_index(buffer, **kwargs) -> SPGiSTIndex:
    return SPGiSTIndex(buffer, ToyBinaryMethods(**kwargs), name="toy")


class TestInsertSearch:
    def test_first_insert_creates_root_leaf(self, buffer):
        index = make_index(buffer)
        index.insert(5, "five")
        assert index.root is not None
        assert index.search_list(Query("=", 5)) == [(5, "five")]

    def test_split_on_bucket_overflow(self, buffer):
        index = make_index(buffer, bucket_size=2)
        for k in [10, 20, 30, 40, 5]:
            index.insert(k)
        stats = index.statistics()
        assert stats.inner_nodes >= 1
        for k in [10, 20, 30, 40, 5]:
            assert (k, None) in index.search_list(Query("=", k))

    def test_exact_search_vs_bruteforce(self, buffer):
        import random

        rng = random.Random(9)
        keys = [rng.randrange(1000) for _ in range(500)]
        index = make_index(buffer, bucket_size=3)
        for i, k in enumerate(keys):
            index.insert(k, i)
        for probe in rng.sample(keys, 25):
            expected = sorted(i for i, k in enumerate(keys) if k == probe)
            got = sorted(v for _, v in index.search(Query("=", probe)))
            assert got == expected

    def test_range_search_vs_bruteforce(self, buffer):
        keys = list(range(0, 200, 3))
        index = make_index(buffer, bucket_size=4)
        for k in keys:
            index.insert(k, k)
        got = sorted(v for _, v in index.search(Query("<=range=>", (50, 120))))
        assert got == [k for k in keys if 50 <= k <= 120]

    def test_unsupported_operator_raises(self, buffer):
        index = make_index(buffer)
        index.insert(1)
        with pytest.raises(PlannerError):
            list(index.search(Query("LIKE", 1)))

    def test_search_empty_index(self, buffer):
        index = make_index(buffer)
        assert index.search_list(Query("=", 1)) == []

    def test_len_tracks_items(self, buffer):
        index = make_index(buffer)
        for k in range(10):
            index.insert(k)
        assert len(index) == 10


class TestSpills:
    def test_duplicate_keys_spill_past_bucket(self, buffer):
        index = make_index(buffer, bucket_size=2)
        for i in range(10):
            index.insert(7, i)
        assert sorted(v for _, v in index.search(Query("=", 7))) == list(range(10))
        # The degenerate split must not have manufactured inner nodes forever.
        assert index.statistics().max_node_height <= 3

    def test_resolution_limits_depth(self, buffer):
        index = make_index(buffer, bucket_size=1, resolution=3)
        for k in range(64):
            index.insert(k)
        assert index.statistics().max_node_height <= 4  # 3 levels + leaves
        assert len(index.search_list(Query("<=range=>", (0, 63)))) == 64


class TestDelete:
    def test_delete_single(self, buffer):
        index = make_index(buffer, bucket_size=2)
        for k in range(20):
            index.insert(k, k)
        assert index.delete(13) == 1
        assert index.search_list(Query("=", 13)) == []
        assert len(index) == 19

    def test_delete_missing_raises(self, buffer):
        index = make_index(buffer)
        index.insert(1)
        with pytest.raises(KeyNotFoundError):
            index.delete(99)

    def test_delete_from_empty_raises(self, buffer):
        with pytest.raises(KeyNotFoundError):
            make_index(buffer).delete(1)

    def test_delete_by_value(self, buffer):
        index = make_index(buffer)
        index.insert(5, "a")
        index.insert(5, "b")
        assert index.delete(5, "a") == 1
        assert index.search_list(Query("=", 5)) == [(5, "b")]

    def test_delete_all_duplicates(self, buffer):
        index = make_index(buffer, bucket_size=2)
        for i in range(6):
            index.insert(42, i)
        assert index.delete(42) == 6
        assert index.search_list(Query("=", 42)) == []

    def test_delete_everything_empties_tree(self, buffer):
        index = make_index(buffer, bucket_size=2)
        keys = list(range(30))
        for k in keys:
            index.insert(k, k)
        for k in keys:
            index.delete(k)
        assert len(index) == 0
        assert index.search_list(Query("<=range=>", (0, 100))) == []

    def test_reinsert_after_full_delete(self, buffer):
        index = make_index(buffer, bucket_size=2)
        for k in range(10):
            index.insert(k)
        for k in range(10):
            index.delete(k)
        index.insert(3, "again")
        assert index.search_list(Query("=", 3)) == [(3, "again")]


class TestNodeShrink:
    def test_node_shrink_false_keeps_empty_partitions(self, buffer):
        index = make_index(buffer, bucket_size=1, node_shrink=False)
        index.insert(10)
        index.insert(20)  # split: lo empty, hi has both? pivot=20 → lo=[10]
        index.insert(30)
        stats = index.statistics()
        # Empty partitions materialize as empty leaves.
        assert stats.leaf_nodes >= stats.inner_nodes + 1

    def test_node_shrink_true_prunes_after_delete(self, buffer):
        index = make_index(buffer, bucket_size=1, node_shrink=True)
        for k in [10, 20, 30, 40]:
            index.insert(k)
        nodes_before = index.statistics().total_nodes
        index.delete(40)
        assert index.statistics().total_nodes < nodes_before


class TestNN:
    def test_nn_order_matches_bruteforce(self, buffer):
        import random

        rng = random.Random(4)
        keys = rng.sample(range(10000), 300)
        index = make_index(buffer, bucket_size=3)
        for k in keys:
            index.insert(k, k)
        query = 5000
        expected = sorted(abs(k - query) for k in keys)[:20]
        from repro.core.nn import nearest

        got = [d for d, _, _ in nearest(index, query, 20)]
        assert got == [float(d) for d in expected]

    def test_nn_is_incremental(self, buffer):
        index = make_index(buffer)
        for k in [1, 5, 9]:
            index.insert(k, k)
        scan = index.nn_search(6)
        assert next(scan)[1] == 5
        assert next(scan)[1] in (9, 1)  # distance ties broken arbitrarily


class TestEvictionSafety:
    def test_inserts_and_searches_under_tiny_pool(self, small_buffer):
        import random

        rng = random.Random(2)
        keys = [rng.randrange(500) for _ in range(400)]
        index = SPGiSTIndex(small_buffer, ToyBinaryMethods(bucket_size=2))
        for i, k in enumerate(keys):
            index.insert(k, i)
        for probe in rng.sample(keys, 20):
            expected = sorted(i for i, k in enumerate(keys) if k == probe)
            got = sorted(v for _, v in index.search(Query("=", probe)))
            assert got == expected
