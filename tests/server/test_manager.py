"""SessionManager tests: admission control, shedding, ordering, lock waits,
lifecycle."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.engine.sql import Database
from repro.errors import (
    ServerOverloadedError,
    SessionClosedError,
    SQLError,
    StatementTimeoutError,
)
from repro.server.manager import SessionManager
from repro.settings import SETTINGS
from tests.server import Parked


def _db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);")
    db.execute("INSERT INTO t VALUES ('alpha', 1), ('beta', 2);")
    return db


class TestBasics:
    def test_execute_round_trip(self):
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            assert mgr.execute(s, "SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]
            assert mgr.execute(s, "INSERT INTO t VALUES ('gamma', 3);") == "INSERT 0 1"

    def test_errors_propagate_through_future(self):
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            with pytest.raises(SQLError):
                mgr.execute(s, "SELECT * FROM nowhere;")

    def test_auto_session_names_are_unique(self):
        with SessionManager(_db()) as mgr:
            names = {mgr.connect().name for _ in range(5)}
            assert len(names) == 5

    def test_duplicate_name_refused(self):
        with SessionManager(_db()) as mgr:
            mgr.connect("dup")
            with pytest.raises(ServerOverloadedError):
                mgr.connect("dup")

    def test_per_session_statement_order(self):
        """Two threads on one session never overlap: the second waits for
        the first to finish and then sees its insert."""
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            with mgr.engine_mutex:
                first = Parked(mgr, s, "INSERT INTO t VALUES ('o1', 101);")
                assert first.entered.wait(5)
                second = Parked(mgr, s, "SELECT * FROM t WHERE key >= 'o';")
                # A bounded negative check, not a synchronisation: while
                # `first` holds the session, `second` must not enter it.
                assert not second.entered.wait(0.2)
            assert first.join() == "INSERT 0 1"
            assert second.join() == [("o1", 101)]

    def test_deadline_counts_the_wait_for_the_session(self):
        """The statement deadline runs from admission: a statement still
        waiting for its session when it expires fails and never runs."""
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            with mgr.engine_mutex:
                first = Parked(mgr, s, "SELECT * FROM t;")
                assert first.entered.wait(5)
                late = Parked(
                    mgr, s, "INSERT INTO t VALUES ('late', 9);",
                    statement_timeout=0.1,
                )
                with pytest.raises(StatementTimeoutError):
                    late.join()
                assert not late.entered.is_set()
            first.join()
            assert mgr.execute(s, "SELECT * FROM t WHERE key = 'late';") == []

    def test_sixteen_sessions_mixed_load_without_errors(self):
        """16 closed-loop sessions x 12 statements: indexed reads, inserts
        and updates of the session's own rows all complete cleanly."""
        sessions, statements = 16, 12
        errors: list[Exception] = []

        def client(mgr, sid):
            s = mgr.connect(f"c{sid}")
            rng = random.Random(sid)
            mine: list[int] = []
            for j in range(statements):
                roll = rng.random()
                if roll < 0.70:
                    sql = "SELECT * FROM t WHERE key = 'alpha';"
                elif roll < 0.95 or not mine:
                    mine.append(1000 * sid + j)
                    sql = f"INSERT INTO t VALUES ('s{sid}', {mine[-1]});"
                else:
                    sql = f"UPDATE t SET key = 'u{sid}' WHERE id = {rng.choice(mine)};"
                try:
                    mgr.execute(s, sql)
                except Exception as exc:
                    errors.append(exc)

        with SessionManager(_db()) as mgr:
            threads = [
                threading.Thread(target=client, args=(mgr, sid))
                for sid in range(sessions)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert errors == []
            assert mgr.stats["submitted"] == sessions * statements


class TestAdmissionControl:
    def test_session_table_bounded(self):
        settings = SETTINGS.replace(max_sessions=3)
        with SessionManager(_db(), settings=settings) as mgr:
            for _ in range(3):
                mgr.connect()
            with pytest.raises(ServerOverloadedError):
                mgr.connect()

    def test_disconnect_frees_a_slot(self):
        settings = SETTINGS.replace(max_sessions=1)
        with SessionManager(_db(), settings=settings) as mgr:
            s = mgr.connect()
            with pytest.raises(ServerOverloadedError):
                mgr.connect()
            mgr.disconnect(s)
            mgr.connect()  # slot is free again

    def test_full_queue_rejects_with_backpressure(self):
        """``max_queue`` bounds the statements in flight."""
        settings = SETTINGS.replace(max_queue=2, shed_threshold=1000)
        with SessionManager(_db(), settings=settings) as mgr:
            sessions = [mgr.connect() for _ in range(3)]
            with mgr.engine_mutex:
                parked = [Parked(mgr, s, "SELECT * FROM t;") for s in sessions[:2]]
                for statement in parked:
                    assert statement.entered.wait(5)
                with pytest.raises(ServerOverloadedError):
                    mgr.execute(sessions[2], "SELECT * FROM t;")
                assert mgr.stats["rejected"] == 1
            for statement in parked:
                assert len(statement.join()) == 2

    def test_rejected_submission_does_not_poison_session(self):
        settings = SETTINGS.replace(max_queue=1, shed_threshold=1000)
        with SessionManager(_db(), settings=settings) as mgr:
            a, b = mgr.connect(), mgr.connect()
            with mgr.engine_mutex:
                first = Parked(mgr, a, "SELECT * FROM t;")
                assert first.entered.wait(5)
                with pytest.raises(ServerOverloadedError):
                    mgr.execute(b, "SELECT * FROM t;")
            first.join()
            # The rejected client retries and succeeds once load drops.
            assert mgr.execute(b, "SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]


class TestLockWaits:
    def test_row_lock_waiters_do_not_starve_the_holders_commit(self):
        """More writers wait on one row than the old worker pool had
        threads (8). Each waits on its own thread, so the holder's COMMIT
        runs at once and every waiter then succeeds."""
        waiters = 9
        settings = SETTINGS.replace(lock_timeout=10.0, statement_timeout=60.0)
        with SessionManager(_db(), settings=settings) as mgr:
            holder = mgr.connect("holder")
            mgr.execute(holder, "BEGIN;")
            mgr.execute(holder, "UPDATE t SET id = 100 WHERE key = 'alpha';")

            blocked: set[str] = set()
            all_blocked = threading.Event()
            acquire = mgr.locks.acquire

            def counting_acquire(owner, key, mode, **kwargs):
                if key[0] == "row":
                    blocked.add(owner.name)
                    if len(blocked) == waiters:
                        all_blocked.set()
                return acquire(owner, key, mode, **kwargs)

            mgr.locks.acquire = counting_acquire
            writers = [
                Parked(
                    mgr, mgr.connect(f"w{i}"),
                    f"UPDATE t SET id = {200 + i} WHERE key = 'alpha';",
                )
                for i in range(waiters)
            ]
            # Well inside lock_timeout, so no waiter gives up first.
            assert all_blocked.wait(settings.lock_timeout / 2)
            start = time.monotonic()
            assert mgr.execute(holder, "COMMIT;") == "COMMIT"
            assert time.monotonic() - start < settings.lock_timeout / 2
            for writer in writers:
                assert writer.join(30) == "UPDATE 1"
            rows = mgr.execute(holder, "SELECT * FROM t WHERE key = 'alpha';")
            assert len(rows) == 1 and rows[0][1] >= 200


class TestShedding:
    def test_read_only_sheds_to_standby_reader(self):
        calls = []

        def reader(sql):
            calls.append(sql)
            return [("standby", 0)]

        settings = SETTINGS.replace(
            max_queue=64, shed_threshold=0
        )
        with SessionManager(_db(), settings=settings, shed_reader=reader) as mgr:
            s = mgr.connect()
            # threshold 0: every eligible read sheds immediately.
            rows = mgr.execute(s, "SELECT * FROM t WHERE id = 1;")
            assert rows == [("standby", 0)]
            assert calls and mgr.stats["shed"] == 1

    def test_writes_and_txn_statements_never_shed(self):
        def reader(sql):  # pragma: no cover - must not be called
            raise AssertionError("write was shed")

        settings = SETTINGS.replace(
            max_queue=64, shed_threshold=0
        )
        with SessionManager(_db(), settings=settings, shed_reader=reader) as mgr:
            s = mgr.connect()
            assert mgr.execute(s, "INSERT INTO t VALUES ('w', 9);") == "INSERT 0 1"
            # Reads inside a transaction need the primary snapshot.
            mgr.execute(s, "BEGIN;")
            rows = mgr.execute(s, "SELECT * FROM t WHERE id = 9;")
            assert rows == [("w", 9)]
            mgr.execute(s, "COMMIT;")
            assert mgr.stats["shed"] == 0

    def test_declined_shed_falls_back_to_queue(self):
        settings = SETTINGS.replace(
            max_queue=64, shed_threshold=0
        )
        with SessionManager(
            _db(), settings=settings, shed_reader=lambda sql: None
        ) as mgr:
            s = mgr.connect()
            # Reader declines (returns None): statement runs on the primary.
            assert mgr.execute(s, "SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]
            assert mgr.stats["shed"] == 0


class TestLifecycle:
    def test_stop_fails_queued_statements(self):
        """A statement waiting for a session that stop() closes fails with
        SessionClosedError; the one already running completes."""
        mgr = SessionManager(_db())
        idle = mgr.connect("idle")  # connected first, so closed first
        s = mgr.connect("busy")
        closing = threading.Event()
        close = idle.close

        def signalling_close():
            closing.set()
            close()

        idle.close = signalling_close
        with mgr.engine_mutex:
            first = Parked(mgr, s, "SELECT * FROM t;")
            assert first.entered.wait(5)
            second = Parked(mgr, s, "INSERT INTO t VALUES ('never', 9);")
            stopper = threading.Thread(target=mgr.stop)
            stopper.start()
            # stop() has refused new work and is closing sessions; closing
            # needs the engine mutex, so let go of it.
            assert closing.wait(5)
        stopper.join(timeout=10)
        assert not stopper.is_alive()
        assert len(first.join()) == 2
        with pytest.raises(SessionClosedError):
            second.join()
        assert mgr.db.execute("SELECT * FROM t WHERE key = 'never';") == []

    def test_execute_after_stop_refused(self):
        mgr = SessionManager(_db())
        s = mgr.connect()
        mgr.stop()
        with pytest.raises(SessionClosedError):
            mgr.execute(s, "SELECT * FROM t;")
