"""Tests for Table / TableIndex (heap + secondary index maintenance)."""

import pytest

from repro.engine.catalog import default_catalog
from repro.engine.table import Column, Table
from repro.engine.txn import TransactionManager
from repro.errors import CatalogError
from repro.geometry import Box, Point
from repro.workloads import random_points, random_words


@pytest.fixture
def catalog():
    return default_catalog()


@pytest.fixture
def word_table(buffer, catalog):
    table = Table(
        "word_data",
        [Column("name", "varchar"), Column("id", "int")],
        buffer,
        catalog,
    )
    for i, w in enumerate(random_words(400, seed=121)):
        table.insert((w, i))
    return table


class TestSchema:
    def test_column_lookup(self, word_table):
        assert word_table.column_index("name") == 0
        assert word_table.column("id").type_name == "int"

    def test_unknown_column_raises(self, word_table):
        with pytest.raises(CatalogError):
            word_table.column_index("ghost")

    def test_arity_check_on_insert(self, word_table):
        with pytest.raises(ValueError):
            word_table.insert(("only-one",))


class TestIndexLifecycle:
    def test_create_index_builds_from_existing_rows(self, word_table):
        index = word_table.create_index("trie_idx", "name", "SP_GiST",
                                        "SP_GiST_trie")
        rows = {w for _tid, (w, _i) in word_table.scan()}
        probe = next(iter(rows))
        tids = list(index.scan("=", probe))
        assert tids
        assert all(word_table.fetch(t)[0] == probe for t in tids)

    def test_duplicate_index_name_rejected(self, word_table):
        word_table.create_index("idx", "name", "SP_GiST", "SP_GiST_trie")
        with pytest.raises(CatalogError):
            word_table.create_index("idx", "name", "SP_GiST", "SP_GiST_trie")

    def test_type_mismatch_rejected(self, word_table):
        with pytest.raises(CatalogError):
            word_table.create_index("idx", "id", "SP_GiST", "SP_GiST_trie")

    def test_am_mismatch_rejected(self, word_table):
        with pytest.raises(CatalogError):
            word_table.create_index("idx", "name", "btree", "SP_GiST_trie")

    def test_default_opclass_selected(self, word_table):
        index = word_table.create_index("idx", "name", "SP_GiST")
        assert index.opclass.name == "SP_GiST_trie"

    def test_drop_index(self, word_table):
        word_table.create_index("idx", "name", "SP_GiST")
        word_table.drop_index("idx")
        assert "idx" not in word_table.indexes
        with pytest.raises(CatalogError):
            word_table.drop_index("idx")


class TestIndexMaintenance:
    def test_insert_maintains_all_indexes(self, word_table):
        trie = word_table.create_index("t", "name", "SP_GiST", "SP_GiST_trie")
        bt = word_table.create_index("b", "name", "btree", "btree_varchar")
        word_table.insert(("freshword", 999))
        assert list(trie.scan("=", "freshword"))
        assert list(bt.scan("=", "freshword"))

    @staticmethod
    def _delete_and_vacuum(table, tid):
        """Committed MVCC delete, then the VACUUM that reclaims it."""
        txn = table.txn.begin()
        table.mvcc_delete(tid, txn)
        table.txn.commit(txn)
        table.vacuum()

    def test_delete_maintains_all_indexes(self, buffer, catalog):
        table = Table(
            "word_data",
            [Column("name", "varchar"), Column("id", "int")],
            buffer,
            catalog,
            txn=TransactionManager(),
        )
        trie = table.create_index("t", "name", "SP_GiST", "SP_GiST_trie")
        bt = table.create_index("b", "name", "btree", "btree_varchar")
        tid = table.insert(("victimword", 1000))
        self._delete_and_vacuum(table, tid)
        assert list(trie.scan("=", "victimword")) == []
        assert list(bt.scan("=", "victimword")) == []

    def test_suffix_index_key_extraction(self, buffer, catalog):
        table = Table(
            "docs", [Column("body", "varchar")], buffer, catalog,
            txn=TransactionManager(),
        )
        table.insert(("bandana",))
        idx = table.create_index("sfx", "body", "SP_GiST", "SP_GiST_suffix")
        tids = list(idx.scan("@=", "dan"))
        assert len(tids) == 1
        # deletion must remove every suffix
        self._delete_and_vacuum(table, tids[0])
        assert list(idx.scan("@=", "dan")) == []


class TestSpatialIndexes(object):
    def test_kdtree_and_rtree_agree(self, buffer, catalog):
        table = Table("pts", [Column("p", "point")], buffer, catalog)
        for p in random_points(300, seed=122):
            table.insert((p,))
        kd = table.create_index("kd", "p", "SP_GiST", "SP_GiST_kdtree")
        rt = table.create_index("rt", "p", "rtree", "rtree_point")
        box = Box(10, 10, 40, 40)
        assert sorted(kd.scan("^", box)) == sorted(rt.scan("^", box))

    def test_nn_scan_streams_by_distance(self, buffer, catalog):
        table = Table("pts", [Column("p", "point")], buffer, catalog)
        points = random_points(200, seed=123)
        for p in points:
            table.insert((p,))
        kd = table.create_index("kd", "p", "SP_GiST", "SP_GiST_kdtree")
        assert kd.supports_nn()
        from repro.geometry.distance import euclidean

        query = Point(50, 50)
        tids = list(kd.nn_scan(query))
        dists = [euclidean(table.fetch(t)[0], query) for t in tids]
        assert dists == sorted(dists)
        assert len(tids) == len(points)

    def test_rtree_does_not_support_nn(self, buffer, catalog):
        table = Table("pts", [Column("p", "point")], buffer, catalog)
        table.insert((Point(1, 1),))
        rt = table.create_index("rt", "p", "rtree", "rtree_point")
        assert not rt.supports_nn()


class TestStats:
    def test_stats_before_analyze_has_no_distinct(self, word_table):
        assert word_table.stats("name").distinct_count is None

    def test_analyze_populates_distinct(self, word_table):
        counts = word_table.analyze()
        assert counts["id"] == len(word_table)
        assert word_table.stats("name").distinct_count == counts["name"]

    def test_row_count_tracks_len(self, word_table):
        assert word_table.stats().row_count == len(word_table) == 400
