"""Edge cases: boundary values and unusual-but-legal inputs."""

import pytest

from repro.core import Query
from repro.geometry import Box, LineSegment, Point
from repro.indexes.kdtree import KDTreeIndex
from repro.indexes.pmr import PMRQuadtreeIndex
from repro.indexes.suffix import SuffixTreeIndex
from repro.indexes.trie import TrieIndex
from repro.baselines import BPlusTree
from repro.errors import PlannerError


class TestStringEdgeCases:
    def test_empty_string_key(self, buffer):
        trie = TrieIndex(buffer, bucket_size=2)
        trie.insert("", 0)
        trie.insert("a", 1)
        trie.insert("aa", 2)
        trie.insert("b", 3)
        assert trie.search_equal("") == [("", 0)]
        assert sorted(v for _, v in trie.search_prefix("")) == [0, 1, 2, 3]

    def test_unicode_keys(self, buffer):
        trie = TrieIndex(buffer, bucket_size=1)
        words = ["straße", "stra", "façade", "фон", "日本語", "日本"]
        for i, w in enumerate(words):
            trie.insert(w, i)
        for i, w in enumerate(words):
            assert trie.search_equal(w) == [(w, i)]
        assert sorted(v for _, v in trie.search_prefix("日本")) == [4, 5]

    def test_very_long_keys(self, buffer):
        trie = TrieIndex(buffer, bucket_size=1)
        long_a = "a" * 500
        trie.insert(long_a, 1)
        trie.insert(long_a[:-1] + "b", 2)
        assert trie.search_equal(long_a) == [(long_a, 1)]

    def test_single_character_alphabet(self, buffer):
        # Keys that differ only in length: a, aa, aaa, ... (pure chains).
        trie = TrieIndex(buffer, bucket_size=1)
        for n in range(1, 20):
            trie.insert("a" * n, n)
        for n in (1, 10, 19):
            assert trie.search_equal("a" * n) == [("a" * n, n)]
        assert len(trie.search_prefix("a" * 5)) == 15

    def test_btree_empty_string(self, buffer):
        tree = BPlusTree(buffer)
        tree.insert("", 0)
        tree.insert("a", 1)
        assert tree.search("") == [0]
        assert [k for k, _ in tree.scan_all()] == ["", "a"]

    def test_suffix_tree_single_char_words(self, buffer):
        index = SuffixTreeIndex(buffer)
        for i, w in enumerate(["a", "b", "ab"]):
            index.insert_word(w, i)
        assert sorted(w for w, _ in index.search_substring("a")) == ["a", "ab"]


class TestSpatialEdgeCases:
    def test_points_on_world_corners(self, buffer):
        kd = KDTreeIndex(buffer)
        corners = [Point(0, 0), Point(100, 0), Point(0, 100), Point(100, 100)]
        for i, p in enumerate(corners):
            kd.insert(p, i)
        for i, p in enumerate(corners):
            assert kd.search_point(p) == [(p, i)]
        assert len(kd.search_range(Box(0, 0, 100, 100))) == 4

    def test_all_collinear_points(self, buffer):
        kd = KDTreeIndex(buffer)
        points = [Point(50.0, float(y)) for y in range(50)]
        for i, p in enumerate(points):
            kd.insert(p, i)
        assert sorted(v for _, v in kd.search_range(Box(50, 10, 50, 20))) == \
            list(range(10, 21))

    def test_negative_coordinates(self, buffer):
        kd = KDTreeIndex(buffer)
        points = [Point(-10.5, -20.25), Point(-1, -1), Point(5, -3)]
        for i, p in enumerate(points):
            kd.insert(p, i)
        assert kd.search_point(Point(-10.5, -20.25)) == [(points[0], 0)]
        box = Box(-100, -100, 0, 0)
        assert sorted(v for _, v in kd.search_range(box)) == [0, 1]

    def test_zero_length_segment(self, buffer):
        index = PMRQuadtreeIndex(buffer, Box(0, 0, 100, 100))
        dot = LineSegment(Point(50, 50), Point(50, 50))
        index.insert(dot, 1)
        assert index.search_exact(dot) == [(dot, 1)]
        assert index.search_window(Box(49, 49, 51, 51)) == [(dot, 1)]

    def test_segment_spanning_whole_world(self, buffer):
        index = PMRQuadtreeIndex(buffer, Box(0, 0, 100, 100), threshold=2)
        diagonal = LineSegment(Point(0, 0), Point(100, 100))
        index.insert(diagonal, 0)
        for i in range(1, 10):
            index.insert(
                LineSegment(Point(i * 10, 1), Point(i * 10 + 1, 2)), i
            )
        hits = index.search_window(Box(40, 40, 60, 60))
        assert (diagonal, 0) in hits

    def test_query_window_degenerate_line(self, buffer):
        kd = KDTreeIndex(buffer)
        kd.insert(Point(5, 5), 1)
        kd.insert(Point(5, 7), 2)
        # Zero-width window = vertical line query.
        line = Box(5, 0, 5, 10)
        assert sorted(v for _, v in kd.search_range(line)) == [1, 2]


class TestValueEdgeCases:
    def test_none_values_throughout(self, buffer):
        trie = TrieIndex(buffer, bucket_size=2)
        for w in ["one", "two", "three"]:
            trie.insert(w)  # value defaults to None
        assert trie.search_equal("two") == [("two", None)]
        assert trie.delete("two") == 1

    def test_tuple_values(self, buffer):
        kd = KDTreeIndex(buffer)
        kd.insert(Point(1, 1), ("payload", 42))
        assert kd.search_point(Point(1, 1)) == [(Point(1, 1), ("payload", 42))]

    def test_same_key_many_distinct_values(self, buffer):
        trie = TrieIndex(buffer, bucket_size=2)
        for i in range(30):
            trie.insert("shared", i)
        assert trie.delete("shared", 13) == 1
        remaining = sorted(v for _, v in trie.search_equal("shared"))
        assert remaining == [i for i in range(30) if i != 13]


class TestQueryValidation:
    def test_wrong_operand_types_fail_loudly_or_return_nothing(self, buffer):
        trie = TrieIndex(buffer)
        trie.insert("word", 1)
        with pytest.raises((TypeError, AttributeError, PlannerError)):
            list(trie.search(Query("^", Box(0, 0, 1, 1))))

    def test_operator_check_happens_before_traversal(self, buffer):
        kd = KDTreeIndex(buffer)
        with pytest.raises(PlannerError):
            list(kd.search(Query("#=", "nope")))
