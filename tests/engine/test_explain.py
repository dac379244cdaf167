"""EXPLAIN ANALYZE acceptance: every paper index type, counters reconciled.

For each of the paper's index types (trie, kd-tree, point quadtree, PR
quadtree, PMR quadtree — plus the suffix-tree extension) one paper-shaped
query runs under ``explain_analyze`` and the report must carry: the chosen
index-scan node, an actual row count equal to what the query really
returns, a per-node wall time, and buffer counters that reconcile exactly
with the pool's own ``BufferStats`` delta.
"""

import pytest

from repro.engine import Database, explain, explain_analyze
from repro.engine.explain import ExplainReport
from repro.obs import reset_observability
from repro.workloads import random_points, random_segments, random_words


@pytest.fixture(autouse=True)
def fresh_observability():
    reset_observability()
    yield
    reset_observability()


def _word_db(count=1500):
    db = Database(buffer_capacity=512)
    db.execute("CREATE TABLE word_data (name VARCHAR(50), id INT);")
    table = db.table("word_data")
    for i, w in enumerate(random_words(count, seed=31)):
        table.insert((w, i))
    return db, table


def _point_db(opclass, index_name, count=1500):
    db = Database(buffer_capacity=512)
    db.execute("CREATE TABLE point_data (p POINT, id INT);")
    table = db.table("point_data")
    for i, p in enumerate(random_points(count, seed=32)):
        table.insert((p, i))
    db.execute(
        f"CREATE INDEX {index_name} ON point_data USING SP_GiST "
        f"(p {opclass});"
    )
    db.execute("ANALYZE point_data;")
    return db, table


def _assert_reconciled(report: ExplainReport):
    """Registry delta and BufferStats delta must agree sample for sample."""
    assert report.buffers is not None
    assert report.metric("buffer_hits_total") == report.buffers.hits
    assert report.metric("buffer_misses_total") == report.buffers.misses
    assert report.metric("buffer_evictions_total") == report.buffers.evictions
    assert (
        report.metric("buffer_dirty_writebacks_total")
        == report.buffers.dirty_writebacks
    )
    assert report.metric("buffer_retries_total") == (
        report.buffers.read_retries + report.buffers.write_retries
    )


def _scan_node(report: ExplainReport):
    return report.root.children[0] if report.root.children else report.root


class TestExplainAnalyzePerIndexType:
    def _check(self, db, sql, index_name):
        rows = db.execute(sql)
        report = explain_analyze(db, sql)
        node = _scan_node(report)
        assert "Index Scan" in node.label and index_name in node.label
        assert node.actual_rows == len(rows)
        assert node.wall_ms is not None and node.wall_ms >= 0.0
        assert report.execution_ms is not None
        _assert_reconciled(report)
        text = report.render()
        assert f"actual rows={node.actual_rows}" in text
        assert "buffers:" in text and "time=" in text
        return report

    def test_trie_equality(self):
        db, table = self._trie_db()
        probe = table.scan().__next__()[1][0]
        self._check(
            db, f"SELECT * FROM word_data WHERE name = '{probe}'",
            "sp_trie_index",
        )

    def _trie_db(self):
        db, table = _word_db()
        db.execute(
            "CREATE INDEX sp_trie_index ON word_data USING SP_GiST "
            "(name SP_GiST_trie);"
        )
        db.execute("ANALYZE word_data;")
        return db, table

    def test_kdtree_range(self):
        db, _ = _point_db("SP_GiST_kdtree", "sp_kd_index")
        self._check(
            db, "SELECT * FROM point_data WHERE p ^ '(10,10,25,25)'",
            "sp_kd_index",
        )

    def test_pquadtree_range(self):
        db, _ = _point_db("SP_GiST_pquadtree", "sp_pq_index")
        self._check(
            db, "SELECT * FROM point_data WHERE p ^ '(10,10,25,25)'",
            "sp_pq_index",
        )

    def test_prquadtree_range(self):
        db, _ = _point_db("SP_GiST_prquadtree", "sp_prq_index")
        self._check(
            db, "SELECT * FROM point_data WHERE p ^ '(10,10,25,25)'",
            "sp_prq_index",
        )

    def test_pmr_window(self):
        db = Database(buffer_capacity=512)
        db.execute("CREATE TABLE seg_data (s LSEG, id INT);")
        table = db.table("seg_data")
        for i, seg in enumerate(random_segments(1200, seed=33)):
            table.insert((seg, i))
        db.execute(
            "CREATE INDEX sp_pmr_index ON seg_data USING SP_GiST "
            "(s SP_GiST_pmr);"
        )
        db.execute("ANALYZE seg_data;")
        self._check(
            db, "SELECT * FROM seg_data WHERE s && '(10,10,20,20)'",
            "sp_pmr_index",
        )

    def test_suffix_substring(self):
        db, table = _word_db(1200)
        db.execute(
            "CREATE INDEX sp_sfx_index ON word_data USING SP_GiST "
            "(name SP_GiST_suffix);"
        )
        db.execute("ANALYZE word_data;")
        probe = next(row[0] for _tid, row in table.scan() if len(row[0]) >= 8)
        needle = probe[2:6]  # selective interior substring
        self._check(
            db, f"SELECT * FROM word_data WHERE name @= '{needle}'",
            "sp_sfx_index",
        )


class TestExplainAnalyzeNNAndLimit:
    def test_nn_limit_has_limit_node_and_correct_actuals(self):
        db, _ = _point_db("SP_GiST_kdtree", "sp_kd_index")
        sql = "SELECT * FROM point_data WHERE p @@ '(50,50)' LIMIT 6"
        rows = db.execute(sql)
        assert len(rows) == 6
        report = explain_analyze(db, sql)
        assert report.root.label == "Limit (rows=6)"
        assert report.root.actual_rows == 6
        node = _scan_node(report)
        assert "NN" in node.label
        # The scan under a LIMIT is consumed lazily: exactly 6 rows pulled.
        assert node.actual_rows == 6
        _assert_reconciled(report)

    def test_estimated_vs_actual_rows_both_reported(self):
        db, _ = _point_db("SP_GiST_kdtree", "sp_kd_index")
        report = explain_analyze(
            db, "SELECT * FROM point_data WHERE p ^ '(0,0,50,50)'"
        )
        node = _scan_node(report)
        assert node.est_rows is not None and node.est_rows > 0
        assert node.actual_rows is not None
        text = report.render()
        assert "est rows=" in text and "actual rows=" in text


class TestExplainOnly:
    def test_explain_does_no_execution_io(self):
        db, _ = _point_db("SP_GiST_kdtree", "sp_kd_index")
        before = db.buffer.stats.snapshot()
        report = explain(db, "SELECT * FROM point_data WHERE p ^ '(0,0,9,9)'")
        assert not report.analyzed
        assert report.root.actual_rows is None
        assert "actual rows" not in report.render()
        # Planning may read catalog stats but must not run the scan: the
        # only acceptable buffer traffic is zero misses from the heap scan.
        delta = db.buffer.stats.delta(before)
        assert delta.misses == 0

    def test_analyze_in_block_sees_the_blocks_own_writes(self):
        from repro.engine.sql import SessionState

        db, _ = _word_db(count=200)
        session = SessionState()
        db.execute("BEGIN;", session=session)
        db.execute("INSERT INTO word_data VALUES ('zzblock', 9001);", session)
        sql = "SELECT * FROM word_data WHERE name = 'zzblock'"
        rows = db.execute(sql, session)
        text = db.execute("EXPLAIN ANALYZE " + sql, session)
        assert len(rows) == 1
        assert f"actual rows={len(rows)} " in text.splitlines()[0]
        db.execute("ROLLBACK;", session)


class TestFileBackedLayers:
    def test_wal_and_checksums_surface_in_report(self, tmp_path):
        from repro.storage import BufferPool, FileDiskManager

        disk = FileDiskManager(str(tmp_path / "cluster.pages"))
        db = Database(buffer=BufferPool(disk, capacity=8))
        db.execute("CREATE TABLE word_data (name VARCHAR(50), id INT);")
        table = db.table("word_data")
        for i, w in enumerate(random_words(300, seed=34)):
            table.insert((w, i))
        db.execute(
            "CREATE INDEX sp_trie_index ON word_data USING SP_GiST "
            "(name SP_GiST_trie);"
        )
        db.execute("ANALYZE word_data;")
        db.buffer.clear()  # cold cache: the scan must read + verify pages

        report = explain_analyze(
            db, "SELECT COUNT(*) FROM word_data WHERE name #= 'a'"
        )
        assert report.metric("checksum_verifications_total") > 0
        assert report.buffers.misses > 0
        _assert_reconciled(report)
        text = report.render()
        assert "checksums:" in text and "wal:" in text
        disk.close()
