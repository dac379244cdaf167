"""SQL surface added by the batch executor PR: cursors + REPACK INDEX.

DECLARE/FETCH/CLOSE pagination (batch-boundary-agnostic counts, WITH
HOLD materialization in autocommit, transaction-scoped cursors dying at
block end) and the online clustering maintenance statement, including
its refusal cases.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.external import Query
from repro.engine import Database
from repro.errors import SQLError
from repro.settings import SETTINGS
from repro.workloads import random_words


@pytest.fixture
def db():
    return Database(buffer_capacity=256)


@pytest.fixture
def word_db(db):
    db.execute("CREATE TABLE word_data (name VARCHAR(50), id INT);")
    words = [f"w{i:03d}" for i in range(40)] + ["ran", "randy", "random"]
    for i, word in enumerate(words):
        db.execute(f"INSERT INTO word_data VALUES ('{word}', {i});")
    db.execute(
        "CREATE INDEX sp_trie_index ON word_data USING SP_GiST "
        "(name SP_GiST_trie);"
    )
    return db


class TestCursors:
    def test_declare_fetch_close_roundtrip(self, word_db):
        assert (
            word_db.execute(
                "DECLARE c CURSOR FOR SELECT * FROM word_data;"
            )
            == "DECLARE c"
        )
        first = word_db.execute("FETCH 10 FROM c;")
        assert len(first) == 10
        rest = word_db.execute("FETCH ALL FROM c;")
        assert len(rest) == 33
        assert word_db.execute("FETCH 5 FROM c;") == []
        assert word_db.execute("CLOSE c;") == "CLOSE c"

    def test_fetch_counts_cross_batch_boundaries(self, word_db):
        word_db.execute(
            "DECLARE c CURSOR FOR SELECT id FROM word_data;"
        )
        # 7 does not divide the executor batch size; the carry buffer
        # must hand out exactly 7 rows per FETCH with no gaps or repeats.
        seen: list = []
        while True:
            rows = word_db.execute("FETCH 7 FROM c;")
            if not rows:
                break
            assert len(rows) <= 7
            seen.extend(rows)
        expected = word_db.execute("SELECT id FROM word_data;")
        assert seen == expected

    def test_fetch_without_count_returns_one_batch(self, word_db):
        word_db.execute("DECLARE c CURSOR FOR SELECT * FROM word_data;")
        rows = word_db.execute("FETCH FROM c;")
        assert len(rows) == min(43, SETTINGS.batch_size)

    def test_cursor_ordering_matches_plain_select(self, word_db):
        word_db.execute(
            "DECLARE c CURSOR FOR SELECT name FROM word_data "
            "WHERE name #= 'ran';"
        )
        rows = word_db.execute("FETCH ALL FROM c;")
        assert rows == word_db.execute(
            "SELECT name FROM word_data WHERE name #= 'ran';"
        )

    def test_held_cursor_survives_later_statements(self, word_db):
        word_db.execute("DECLARE c CURSOR FOR SELECT * FROM word_data;")
        # An autocommit cursor is materialized at DECLARE: maintenance
        # that rewrites the index cannot invalidate it.
        word_db.execute("REPACK INDEX sp_trie_index;")
        word_db.execute("INSERT INTO word_data VALUES ('zzz', 999);")
        assert len(word_db.execute("FETCH ALL FROM c;")) == 43

    def test_block_cursor_dies_with_transaction(self, word_db):
        word_db.execute("BEGIN;")
        word_db.execute("DECLARE c CURSOR FOR SELECT * FROM word_data;")
        assert len(word_db.execute("FETCH 3 FROM c;")) == 3
        word_db.execute("COMMIT;")
        with pytest.raises(SQLError):
            word_db.execute("FETCH 3 FROM c;")

    def test_duplicate_and_unknown_cursor_names(self, word_db):
        word_db.execute("DECLARE c CURSOR FOR SELECT * FROM word_data;")
        with pytest.raises(SQLError):
            word_db.execute("DECLARE c CURSOR FOR SELECT * FROM word_data;")
        with pytest.raises(SQLError):
            word_db.execute("FETCH 1 FROM nope;")
        with pytest.raises(SQLError):
            word_db.execute("CLOSE nope;")


class TestRepackIndex:
    def test_repack_reports_and_preserves_answers(self, word_db):
        before = word_db.execute(
            "SELECT name FROM word_data WHERE name #= 'ran';"
        )
        status = word_db.execute("REPACK INDEX sp_trie_index;")
        assert status.startswith("REPACK INDEX sp_trie_index")
        assert "fill" in status
        assert (
            word_db.execute("SELECT name FROM word_data WHERE name #= 'ran';")
            == before
        )

    def test_repack_improves_fill_after_churn(self, word_db):
        for i in range(43):
            if i % 3 != 0:
                word_db.execute(f"DELETE FROM word_data WHERE id = {i};")
        index = word_db.table("word_data").indexes["sp_trie_index"]
        degraded = index.structure.store.fill_factor()
        word_db.execute("REPACK INDEX sp_trie_index;")
        assert index.structure.store.fill_factor() >= degraded

    def test_repack_restores_fill_after_heavy_churn(self, db):
        # Load, then delete 2 of every 3 keys: the index keeps its pages
        # at about a third of their fill until REPACK re-clusters it.
        words = random_words(3000, seed=803)
        db.execute("CREATE TABLE churn (name VARCHAR(50), keep INT);")
        db.execute(
            "INSERT INTO churn VALUES "
            + ", ".join(f"('{w}', {int(i % 3 == 0)})" for i, w in enumerate(words))
            + ";"
        )
        db.execute(
            "CREATE INDEX churn_idx ON churn USING SP_GiST (name SP_GiST_trie);"
        )
        db.execute("DELETE FROM churn WHERE keep = 0;")
        trie = db.table("churn").indexes["churn_idx"].structure
        degraded_pages = len(trie.store.page_ids)
        assert trie.store.fill_factor() < 0.5

        db.execute("REPACK INDEX churn_idx;")

        assert trie.store.fill_factor() >= 0.90
        assert len(trie.store.page_ids) < degraded_pages
        assert "OK" in db.execute("CHECK INDEX churn_idx;")
        survivors = Counter(w for i, w in enumerate(words) if i % 3 == 0)
        for word, count in survivors.items():
            assert len(trie.search_list(Query("=", word))) == count, word

    def test_repack_refused_inside_transaction_block(self, word_db):
        word_db.execute("BEGIN;")
        with pytest.raises(SQLError, match="transaction block"):
            word_db.execute("REPACK INDEX sp_trie_index;")
        word_db.execute("ROLLBACK;")

    def test_repack_unknown_index_rejected(self, word_db):
        with pytest.raises(SQLError, match="unknown index"):
            word_db.execute("REPACK INDEX nope;")

    def test_repack_non_spgist_index_rejected(self, db):
        db.execute("CREATE TABLE t (a VARCHAR(10), b INT);")
        db.execute("CREATE INDEX t_btree ON t USING btree (a);")
        with pytest.raises(SQLError, match="SP-GiST"):
            db.execute("REPACK INDEX t_btree;")

    def test_find_index_locates_owner(self, word_db):
        table, index = word_db.find_index("sp_trie_index")
        assert table.name == "word_data"
        assert index.name == "sp_trie_index"


class TestExplainAnalyzeBatches:
    def test_batch_counts_reported_per_node(self, word_db):
        plan_text = word_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM word_data;"
        )
        assert "batches=" in plan_text

    def test_batch_count_matches_row_math(self, word_db):
        plan_text = word_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM word_data;"
        )
        # 43 visible rows at the engine batch size => ceil(43/size) batches.
        expected = -(-43 // SETTINGS.batch_size)
        assert f"batches={expected}" in plan_text
