"""Tests for the mini-SQL front end (paper Table 6 statements)."""

import pytest

from repro.engine import Database
from repro.engine.parse import parse
from repro.errors import SQLError
from repro.geometry import LineSegment, Point


@pytest.fixture
def db():
    return Database(buffer_capacity=256)


@pytest.fixture
def word_db(db):
    db.execute("CREATE TABLE word_data (name VARCHAR(50), id INT);")
    for i, w in enumerate(
        ["random", "randy", "rindom", "banana", "bandana", "ran", "random"]
    ):
        db.execute(f"INSERT INTO word_data VALUES ('{w}', {i});")
    db.execute(
        "CREATE INDEX sp_trie_index ON word_data USING SP_GiST "
        "(name SP_GiST_trie);"
    )
    return db


class TestDDL:
    def test_create_table_status(self, db):
        assert db.execute("CREATE TABLE t (a VARCHAR(10));") == "CREATE TABLE t"

    def test_duplicate_table_rejected(self, db):
        db.execute("CREATE TABLE t (a INT);")
        with pytest.raises(SQLError):
            db.execute("CREATE TABLE t (a INT);")

    def test_unknown_type_rejected(self, db):
        with pytest.raises(SQLError):
            db.execute("CREATE TABLE t (a BLOB);")

    def test_paper_table6_ddl_verbatim(self, db):
        db.execute("CREATE TABLE word_data ( name VARCHAR(50), id INT);")
        assert (
            db.execute(
                "CREATE INDEX sp_trie_index ON word_data USING SP_GiST "
                "(name SP_GiST_trie);"
            )
            == "CREATE INDEX sp_trie_index"
        )
        db.execute("CREATE TABLE point_data ( p POINT , id INT);")
        assert (
            db.execute(
                "CREATE INDEX sp_kdtree_index ON point_data USING SP_GiST "
                "(p SP_GiST_kdtree);"
            )
            == "CREATE INDEX sp_kdtree_index"
        )

    def test_drop_table(self, db):
        db.execute("CREATE TABLE t (a INT);")
        db.execute("DROP TABLE t;")
        with pytest.raises(SQLError):
            db.execute("SELECT * FROM t;")

    def test_drop_index(self, word_db):
        word_db.execute("DROP INDEX sp_trie_index ON word_data;")
        assert word_db.table("word_data").indexes == {}

    def test_garbage_rejected(self, db):
        with pytest.raises(SQLError):
            db.execute("FROBNICATE THE DATABASE;")


class TestQueriesTable6:
    def test_equality_query(self, word_db):
        rows = word_db.execute(
            "SELECT * FROM word_data WHERE name = 'random';"
        )
        assert sorted(rows) == [("random", 0), ("random", 6)]

    def test_regex_query(self, word_db):
        rows = word_db.execute(
            "SELECT * FROM word_data WHERE name ?= 'r?nd?m';"
        )
        assert sorted(r[0] for r in rows) == ["random", "random", "rindom"]

    def test_prefix_query(self, word_db):
        rows = word_db.execute("SELECT * FROM word_data WHERE name #= 'ban';")
        assert sorted(r[0] for r in rows) == ["banana", "bandana"]

    def test_point_equality_and_range(self, db):
        db.execute("CREATE TABLE point_data (p POINT, id INT);")
        db.execute("INSERT INTO point_data VALUES ('(0,1)', 1);")
        db.execute("INSERT INTO point_data VALUES ('(3,3)', 2);")
        db.execute(
            "CREATE INDEX kd ON point_data USING SP_GiST (p SP_GiST_kdtree);"
        )
        assert db.execute("SELECT * FROM point_data WHERE p @ '(0,1)';") == [
            (Point(0, 1), 1)
        ]
        rows = db.execute("SELECT * FROM point_data WHERE p ^ '(0,0,5,5)';")
        assert len(rows) == 2

    def test_substring_query(self, db):
        db.execute("CREATE TABLE docs (body VARCHAR(100));")
        for w in ["bandana", "cabana", "xyz"]:
            db.execute(f"INSERT INTO docs VALUES ('{w}');")
        db.execute(
            "CREATE INDEX sfx ON docs USING SP_GiST (body SP_GiST_suffix);"
        )
        rows = db.execute("SELECT * FROM docs WHERE body @= 'ana';")
        assert sorted(r[0] for r in rows) == ["bandana", "cabana"]

    def test_segment_window_query(self, db):
        db.execute("CREATE TABLE segs (s LSEG, id INT);")
        db.execute("INSERT INTO segs VALUES ('[(1,1),(4,4)]', 1);")
        db.execute("INSERT INTO segs VALUES ('[(90,90),(95,95)]', 2);")
        db.execute("CREATE INDEX pm ON segs USING SP_GiST (s SP_GiST_pmr);")
        rows = db.execute("SELECT * FROM segs WHERE s && '(0,0,10,10)';")
        assert rows == [(LineSegment(Point(1, 1), Point(4, 4)), 1)]

    def test_nn_query_with_limit(self, word_db):
        rows = word_db.execute(
            "SELECT * FROM word_data WHERE name @@ 'randy' LIMIT 2;"
        )
        assert rows[0][0] == "randy"
        assert len(rows) == 2

    def test_limit_applies_to_plain_select(self, word_db):
        rows = word_db.execute("SELECT * FROM word_data LIMIT 3;")
        assert len(rows) == 3

    def test_select_all(self, word_db):
        assert len(word_db.execute("SELECT * FROM word_data;")) == 7

    def test_projection_single_column(self, word_db):
        rows = word_db.execute(
            "SELECT name FROM word_data WHERE name #= 'ban';"
        )
        assert sorted(rows) == [("banana",), ("bandana",)]

    def test_projection_reorders_columns(self, word_db):
        rows = word_db.execute(
            "SELECT id, name FROM word_data WHERE name = 'randy';"
        )
        assert rows == [(1, "randy")]

    def test_projection_unknown_column(self, word_db):
        from repro.errors import CatalogError

        with pytest.raises(CatalogError):
            word_db.execute("SELECT ghost FROM word_data;")

    def test_count_star(self, word_db):
        assert word_db.execute("SELECT COUNT(*) FROM word_data;") == [(7,)]

    def test_count_with_predicate(self, word_db):
        # 'random' (×2), 'randy', and 'ran' all start with 'ran'.
        assert word_db.execute(
            "SELECT COUNT(*) FROM word_data WHERE name #= 'ran';"
        ) == [(4,)]

    def test_count_respects_limit(self, word_db):
        assert word_db.execute(
            "SELECT COUNT(*) FROM word_data LIMIT 3;"
        ) == [(3,)]


class TestDML:
    def test_insert_status(self, db):
        db.execute("CREATE TABLE t (a VARCHAR(5), b INT);")
        assert db.execute("INSERT INTO t VALUES ('x', 1);") == "INSERT 0 1"

    def test_insert_arity_mismatch(self, db):
        db.execute("CREATE TABLE t (a VARCHAR(5), b INT);")
        with pytest.raises(SQLError):
            db.execute("INSERT INTO t VALUES ('x');")

    def test_unquoted_varchar_rejected(self, db):
        db.execute("CREATE TABLE t (a VARCHAR(5));")
        with pytest.raises(SQLError):
            db.execute("INSERT INTO t VALUES (abc);")

    def test_delete_removes_from_heap_and_index(self, word_db):
        assert (
            word_db.execute("DELETE FROM word_data WHERE name = 'banana';")
            == "DELETE 1"
        )
        assert word_db.execute(
            "SELECT * FROM word_data WHERE name = 'banana';"
        ) == []
        # the index agrees
        idx = word_db.table("word_data").indexes["sp_trie_index"]
        assert list(idx.scan("=", "banana")) == []

    def test_delete_count_for_duplicates(self, word_db):
        assert (
            word_db.execute("DELETE FROM word_data WHERE name = 'random';")
            == "DELETE 2"
        )


class TestExplainAnalyze:
    def test_explain_shows_plan(self, word_db):
        text = word_db.execute(
            "EXPLAIN SELECT * FROM word_data WHERE name = 'random';"
        )
        assert "Scan" in text and "cost=" in text

    def test_analyze_status(self, word_db):
        assert word_db.execute("ANALYZE word_data;") == "ANALYZE word_data"

    def test_explain_nn(self, word_db):
        text = word_db.execute(
            "EXPLAIN SELECT * FROM word_data WHERE name @@ 'randy';"
        )
        assert "NN" in text

    def test_explain_analyze_reports_actuals(self, word_db):
        text = word_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM word_data WHERE name = 'random';"
        )
        assert "actual rows=2" in text
        assert "buffers:" in text and "time=" in text

    def test_explain_analyze_respects_limit(self, word_db):
        text = word_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM word_data LIMIT 3;"
        )
        assert "actual rows=3" in text

    def test_explain_analyze_actually_executes(self, word_db):
        # The reported row count must match a real execution's.
        rows = word_db.execute("SELECT * FROM word_data WHERE name #= 'ban';")
        text = word_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM word_data WHERE name #= 'ban';"
        )
        assert f"actual rows={len(rows)}" in text


class TestLiteralBinding:
    def test_point_literal(self, db):
        db.execute("CREATE TABLE t (p POINT);")
        db.execute("INSERT INTO t VALUES ('(1.5,-2)');")
        [(p,)] = db.execute("SELECT * FROM t;")
        assert p == Point(1.5, -2.0)

    def test_segment_literal(self, db):
        db.execute("CREATE TABLE t (s LSEG);")
        db.execute("INSERT INTO t VALUES ('[(0,0),(1,2)]');")
        [(s,)] = db.execute("SELECT * FROM t;")
        assert s == LineSegment(Point(0, 0), Point(1, 2))

    def test_int_and_float(self, db):
        db.execute("CREATE TABLE t (a INT, b FLOAT);")
        db.execute("INSERT INTO t VALUES (7, 2.5);")
        assert db.execute("SELECT * FROM t;") == [(7, 2.5)]

    def test_string_comparison_without_spaces_binds(self, word_db):
        rows = word_db.execute("SELECT * FROM word_data WHERE name='banana';")
        assert rows == [("banana", 3)]

    def test_negative_literal_after_equals_binds_as_equality(self, db):
        db.execute("CREATE TABLE t (id INT);")
        db.execute("INSERT INTO t VALUES (-10), (10);")
        column, op, literal = parse("SELECT * FROM t WHERE id=-10").predicate
        assert (column, op, literal.text) == ("id", "=", "-10")
        assert db.execute("SELECT * FROM t WHERE id=-10;") == [(-10,)]
