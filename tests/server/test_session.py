"""Session tests: 2PL over the engine, typed aborts, timeout taxonomy."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.sql import Database
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    SessionClosedError,
    SQLError,
    StatementTimeoutError,
    TxnAbortedError,
    TxnError,
)
from repro.server.locks import LockManager, LockMode, table_key
from repro.engine.parse import leading_class, parse
from repro.server.session import Session, table_locks
from repro.settings import SETTINGS


@pytest.fixture
def db():
    database = Database()
    database.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    database.execute(
        "CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);"
    )
    database.execute("INSERT INTO t VALUES ('alpha', 1), ('beta', 2);")
    return database


@pytest.fixture
def stack(db):
    locks = LockManager()
    mutex = threading.RLock()

    def make(name):
        return Session(name, db, locks, engine_mutex=mutex, settings=SETTINGS)

    return db, locks, make


def _classify(sql_text, db=None):
    return table_locks(parse(sql_text), db)


class TestClassification:
    def test_select_takes_shared(self):
        assert _classify("SELECT * FROM t WHERE key = 'x';") == [
            (table_key("t"), LockMode.SHARED)
        ]

    def test_dml_takes_row(self):
        for sql in (
            "INSERT INTO t VALUES ('x', 1);",
            "DELETE FROM t WHERE id = 1;",
            "UPDATE t SET key = 'y' WHERE id = 1;",
        ):
            assert _classify(sql) == [(table_key("t"), LockMode.ROW)]

    def test_vacuum_and_ddl_take_exclusive(self):
        assert _classify("VACUUM t;") == [(table_key("t"), LockMode.EXCLUSIVE)]
        assert _classify("DROP TABLE t;") == [
            (table_key("t"), LockMode.EXCLUSIVE)
        ]
        assert _classify(
            "CREATE INDEX i ON t USING SP_GiST (key SP_GiST_trie);"
        ) == [(table_key("t"), LockMode.EXCLUSIVE)]

    def test_txn_control_takes_nothing(self):
        assert _classify("BEGIN;") == []
        assert _classify("COMMIT;") == []
        assert _classify("ROLLBACK;") == []

    def test_explain_classifies_inner(self):
        assert _classify("EXPLAIN SELECT * FROM t;") == [
            (table_key("t"), LockMode.SHARED)
        ]

    def test_read_only_detector(self):
        for sql, read_only in (
            ("SELECT * FROM t;", True),
            ("  explain select * from t;", True),
            ("INSERT INTO t VALUES ('x', 1);", False),
            ("VACUUM t;", False),
        ):
            assert parse(sql).read_only is read_only
            assert (leading_class(sql) == "read") is read_only


class TestBasicExecution:
    def test_autocommit_releases_locks(self, stack):
        _, locks, make = stack
        session = make("s1")
        session.execute("INSERT INTO t VALUES ('gamma', 3);")
        assert locks.stats()["held"] == 0

    def test_block_holds_locks_until_commit(self, stack):
        _, locks, make = stack
        session = make("s1")
        session.execute("BEGIN;")
        session.execute("UPDATE t SET key = 'alpha2' WHERE id = 1;")
        held = locks.stats()["held"]
        assert held >= 2  # table ROW lock + the TID lock
        session.execute("COMMIT;")
        assert locks.stats()["held"] == 0

    def test_closed_session_refuses_work(self, stack):
        _, _, make = stack
        session = make("s1")
        session.close()
        with pytest.raises(SessionClosedError):
            session.execute("SELECT * FROM t;")

    def test_close_aborts_open_txn_and_releases(self, stack):
        db, locks, make = stack
        session = make("s1")
        session.execute("BEGIN;")
        session.execute("INSERT INTO t VALUES ('temp', 99);")
        session.close()
        assert locks.stats()["held"] == 0
        assert db.execute("SELECT * FROM t WHERE id = 99;") == []


class TestAbortedBlockTaxonomy:
    def test_error_in_block_aborts_until_rollback(self, stack):
        _, _, make = stack
        session = make("s1")
        session.execute("BEGIN;")
        with pytest.raises(SQLError):
            session.execute("SELECT * FROM missing_table;")
        with pytest.raises(TxnAbortedError, match="current transaction is aborted"):
            session.execute("SELECT * FROM t;")
        assert session.execute("COMMIT;") == "ROLLBACK"
        # Usable again afterwards.
        assert session.execute("SELECT * FROM t WHERE id = 1;") != []

    def test_unparsable_statement_in_block_aborts_it(self, stack):
        """Text the parser rejects still aborts the open block: the engine
        sees it, raises, and the block's own insert is rolled back."""
        db, _, make = stack
        session = make("s1")
        session.execute("BEGIN;")
        session.execute("INSERT INTO t VALUES ('doomed', 7);")
        with pytest.raises(SQLError):
            session.execute("SELEC * FROM t;")
        with pytest.raises(TxnAbortedError, match="current transaction is aborted"):
            session.execute("SELECT * FROM t;")
        assert session.execute("COMMIT;") == "ROLLBACK"
        assert db.execute("SELECT * FROM t WHERE key = 'doomed';") == []

    def test_write_conflict_is_first_updater_wins(self, stack):
        """Two blocks updating the same row: waiter gets TxnError on retry."""
        _, _, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s2.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'one' WHERE id = 1;")
        result = {}

        def second_updater():
            try:
                s2.execute("UPDATE t SET key = 'two' WHERE id = 1;")
                result["s2"] = "updated"
            except TxnError as exc:
                result["s2"] = type(exc).__name__

        thread = threading.Thread(target=second_updater)
        thread.start()
        time.sleep(0.1)
        s1.execute("COMMIT;")
        thread.join(timeout=10)
        # s2's snapshot predates s1's commit: first-updater-wins fires.
        assert result["s2"] == "TxnError"
        assert s2.execute("ROLLBACK;") == "ROLLBACK"

    def test_autocommit_conflict_retries_cleanly(self, stack):
        """Autocommit DML re-runs with a fresh snapshot after the wait."""
        _, _, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'held' WHERE id = 1;")
        result = {}

        def second_updater():
            result["s2"] = s2.execute("UPDATE t SET key = 'after' WHERE id = 1;")

        thread = threading.Thread(target=second_updater)
        thread.start()
        time.sleep(0.1)
        s1.execute("COMMIT;")
        thread.join(timeout=10)
        assert result["s2"] == "UPDATE 1"
        assert s2.execute("SELECT * FROM t WHERE id = 1;") == [("after", 1)]


class TestTimeouts:
    def test_lock_timeout_aborts_cleanly(self, stack):
        _, locks, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'held' WHERE id = 1;")
        with pytest.raises(LockTimeoutError):
            s2.execute(
                "UPDATE t SET key = 'x' WHERE id = 1;", lock_timeout=0.05
            )
        # s2 was autocommit: no failed block, session immediately usable.
        assert s2.execute("SELECT * FROM t WHERE id = 2;") == [("beta", 2)]
        s1.execute("COMMIT;")
        assert locks.stats()["held"] == 0

    def test_statement_timeout_during_lock_wait(self, stack):
        _, _, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'held' WHERE id = 1;")
        with pytest.raises(StatementTimeoutError):
            s2.execute(
                "UPDATE t SET key = 'x' WHERE id = 1;", statement_timeout=0.05
            )
        s1.execute("ROLLBACK;")

    def test_statement_timeout_in_block_aborts_block(self, stack):
        _, _, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'held' WHERE id = 1;")
        s2.execute("BEGIN;")
        with pytest.raises(StatementTimeoutError):
            s2.execute(
                "UPDATE t SET key = 'x' WHERE id = 1;", statement_timeout=0.05
            )
        with pytest.raises(TxnAbortedError):
            s2.execute("SELECT * FROM t;")
        assert s2.execute("ROLLBACK;") == "ROLLBACK"
        s1.execute("COMMIT;")

    def test_deadline_check_interrupts_long_scan(self, stack):
        db, _, make = stack
        session = make("s1")
        rows = ", ".join(f"('bulk{i:04d}', {1000 + i})" for i in range(600))
        session.execute(f"INSERT INTO t VALUES {rows};")
        # A deadline that has already passed: the cooperative check in the
        # scan fires within one deadline_check_interval of rows.
        with pytest.raises(StatementTimeoutError):
            session.execute("SELECT * FROM t;", statement_timeout=1e-9)
        # Session stays healthy (autocommit, nothing to roll back).
        assert session.execute("SELECT * FROM t WHERE id = 1;") != []


class TestDeadlockThroughSessions:
    def test_sql_level_deadlock_victim(self, stack):
        _, _, make = stack
        s1, s2 = make("s1"), make("s2")
        s1.execute("BEGIN;")
        s2.execute("BEGIN;")
        s1.execute("UPDATE t SET key = 'a1' WHERE id = 1;")
        s2.execute("UPDATE t SET key = 'b2' WHERE id = 2;")
        results = {}

        def cross(session, tag, sql):
            try:
                session.execute(sql)
                session.execute("COMMIT;")
                results[tag] = "committed"
            except DeadlockError:
                results[tag] = "deadlock"
                session.execute("ROLLBACK;")
            except TxnError as exc:
                results[tag] = type(exc).__name__
                session.execute("ROLLBACK;")

        t1 = threading.Thread(
            target=cross, args=(s1, "s1", "UPDATE t SET key = 'a2' WHERE id = 2;")
        )
        t2 = threading.Thread(
            target=cross, args=(s2, "s2", "UPDATE t SET key = 'b1' WHERE id = 1;")
        )
        t1.start()
        time.sleep(0.05)
        t2.start()
        t1.join(timeout=15)
        t2.join(timeout=15)
        assert sorted(results.values()) == ["committed", "deadlock"]
