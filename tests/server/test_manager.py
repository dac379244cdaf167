"""SessionManager tests: admission control, shedding, ordering, lifecycle."""

from __future__ import annotations

import random
import threading

import pytest

from repro.engine.sql import Database
from repro.errors import (
    ServerOverloadedError,
    SessionClosedError,
    SQLError,
)
from repro.server.manager import SessionManager
from repro.settings import SETTINGS


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
        """A session's statements run strictly in submission order."""
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            pendings = [
                mgr.submit(s, f"INSERT INTO t VALUES ('o{i:02d}', {100 + i});")
                for i in range(20)
            ]
            pendings.append(mgr.submit(s, "SELECT * FROM t WHERE key >= 'o';"))
            rows = pendings[-1].wait(timeout=30)
            # The final SELECT must observe every preceding INSERT.
            assert len(rows) == 20

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
        settings = SETTINGS.replace(max_sessions=3, worker_threads=2)
        with SessionManager(_db(), settings=settings) as mgr:
            for _ in range(3):
                mgr.connect()
            with pytest.raises(ServerOverloadedError):
                mgr.connect()

    def test_disconnect_frees_a_slot(self):
        settings = SETTINGS.replace(max_sessions=1, worker_threads=1)
        with SessionManager(_db(), settings=settings) as mgr:
            s = mgr.connect()
            with pytest.raises(ServerOverloadedError):
                mgr.connect()
            mgr.disconnect(s)
            mgr.connect()  # slot is free again

    def test_full_queue_rejects_with_backpressure(self):
        settings = SETTINGS.replace(
            max_queue=2, worker_threads=1, shed_threshold=1000
        )
        db = _db()
        gate = threading.Lock()
        with SessionManager(db, settings=settings) as mgr:
            blocker = mgr.connect("blocker")
            others = [mgr.connect() for _ in range(4)]
            with gate:
                # Park the single worker on a statement that waits on `gate`
                # via the engine mutex.
                with mgr.engine_mutex:
                    first = mgr.submit(blocker, "SELECT * FROM t;")
                    import time

                    time.sleep(0.1)  # worker picks it up, blocks on mutex
                    # Fill the queue to max_queue.
                    queued = [
                        mgr.submit(others[i], "SELECT * FROM t;")
                        for i in range(2)
                    ]
                    with pytest.raises(ServerOverloadedError):
                        mgr.submit(others[2], "SELECT * FROM t;")
                    assert mgr.stats["rejected"] == 1
            first.wait(timeout=10)
            for pending in queued:
                pending.wait(timeout=10)

    def test_rejected_submission_does_not_poison_session(self):
        settings = SETTINGS.replace(
            max_queue=1, worker_threads=1, shed_threshold=1000
        )
        with SessionManager(_db(), settings=settings) as mgr:
            a, b = mgr.connect(), mgr.connect()
            with mgr.engine_mutex:
                first = mgr.submit(a, "SELECT * FROM t;")
                import time

                time.sleep(0.1)
                held = mgr.submit(b, "SELECT * FROM t;")
                with pytest.raises(ServerOverloadedError):
                    mgr.submit(b, "SELECT * FROM t;")
            first.wait(timeout=10)
            held.wait(timeout=10)
            # The rejected client retries and succeeds once load drops.
            assert mgr.execute(b, "SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]


class TestShedding:
    def test_read_only_sheds_to_standby_reader(self):
        calls = []

        def reader(sql):
            calls.append(sql)
            return [("standby", 0)]

        settings = SETTINGS.replace(
            max_queue=64, worker_threads=1, shed_threshold=0
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
            max_queue=64, worker_threads=2, shed_threshold=0
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
            max_queue=64, worker_threads=2, shed_threshold=0
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
        settings = SETTINGS.replace(max_queue=64, worker_threads=1)
        db = _db()
        mgr = SessionManager(db, settings=settings)
        s = mgr.connect()
        with mgr.engine_mutex:
            first = mgr.submit(s, "SELECT * FROM t;")
            import time

            time.sleep(0.1)
            second = mgr.submit(s, "SELECT * FROM t;")
            stopper = threading.Thread(target=mgr.stop)
            stopper.start()
            time.sleep(0.1)
        stopper.join(timeout=10)
        with pytest.raises(SessionClosedError):
            second.wait(timeout=5)
        # `first` was already running; it completes or fails, never hangs.
        assert first.done() or first.wait(timeout=5) is not None

    def test_submit_after_stop_refused(self):
        mgr = SessionManager(_db())
        s = mgr.connect()
        mgr.stop()
        with pytest.raises(SessionClosedError):
            mgr.submit(s, "SELECT * FROM t;")
