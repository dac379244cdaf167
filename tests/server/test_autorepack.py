"""AutoRepacker: background re-clustering under the server's 2PL.

Covers candidate selection (most degraded first), the bounded step
(lock in, repack hottest subtree, commit, lock out), autovacuum-style
back-off on contention, the daemon loop, the lock classification of the
new statements, and the per-waiter wakeup accounting the step relies on.
"""

from __future__ import annotations

import threading
import time

from repro.engine.sql import Database
from repro.server.locks import LockManager, LockMode, LockOwner, table_key
from repro.server.repack import AutoRepacker
from repro.engine.parse import parse
from repro.server.session import table_locks


def _degraded_db(rows: int = 180) -> Database:
    """A words table whose trie index has been churned below 0.6 fill."""
    db = Database(buffer_capacity=256)
    db.execute("CREATE TABLE t (key VARCHAR(30), id INT);")
    for i in range(rows):
        db.execute(f"INSERT INTO t VALUES ('word{i:04d}', {i});")
    db.execute("CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);")
    for i in range(rows):
        if i % 3 != 0:
            db.execute(f"DELETE FROM t WHERE id = {i};")
    return db


def _fill(db: Database) -> float:
    return db.table("t").indexes["t_idx"].structure.store.fill_factor()


class TestCandidates:
    def test_degraded_index_is_a_candidate(self):
        db = _degraded_db()
        repacker = AutoRepacker(db, LockManager())
        found = list(repacker.candidates())
        assert [(t, i) for t, i, _f in found] == [("t", "t_idx")]
        assert found[0][2] < repacker.fill_threshold

    def test_healthy_index_is_not_a_candidate(self):
        db = Database(buffer_capacity=256)
        db.execute("CREATE TABLE t (key VARCHAR(30), id INT);")
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ('word{i:04d}', {i});")
        db.execute(
            "CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);"
        )
        repacker = AutoRepacker(db, LockManager())
        assert list(repacker.candidates()) == []

    def test_most_degraded_index_sorts_first(self):
        db = _degraded_db()
        db.execute("CREATE TABLE u (key VARCHAR(30), id INT);")
        for i in range(60):
            db.execute(f"INSERT INTO u VALUES ('other{i:04d}', {i});")
        db.execute(
            "CREATE INDEX u_idx ON u USING SP_GiST (key SP_GiST_trie);"
        )
        db.execute("DELETE FROM u WHERE id = 5;")  # barely touched
        repacker = AutoRepacker(db, LockManager(), fill_threshold=1.01)
        found = list(repacker.candidates())
        assert len(found) == 2
        assert found[0][2] <= found[1][2]


class TestStep:
    def test_step_improves_fill_and_releases_locks(self):
        db = _degraded_db()
        locks = LockManager()
        repacker = AutoRepacker(db, locks)
        before = _fill(db)
        stats = repacker.step()
        assert stats is not None
        assert stats.subtrees_repacked == 1
        assert repacker.steps == 1
        assert locks.stats()["held"] == 0  # lock dropped after the step
        # One bounded step need not cross the threshold, but repeated
        # steps must converge above it.
        for _ in range(40):
            if repacker.step() is None:
                break
        assert _fill(db) >= min(repacker.fill_threshold, before + 0.01)

    def test_step_returns_none_when_nothing_degraded(self):
        db = Database(buffer_capacity=256)
        db.execute("CREATE TABLE t (key VARCHAR(30), id INT);")
        for i in range(60):
            db.execute(f"INSERT INTO t VALUES ('word{i:04d}', {i});")
        db.execute(
            "CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);"
        )
        repacker = AutoRepacker(db, LockManager())
        assert repacker.step() is None
        assert repacker.steps == 0

    def test_step_backs_off_when_table_is_locked(self):
        db = _degraded_db()
        locks = LockManager()
        repacker = AutoRepacker(db, locks, lock_timeout=0.01)
        reader = LockOwner("session-1", 1)
        locks.acquire(reader, table_key("t"), LockMode.SHARED)
        try:
            assert repacker.step() is None  # skipped, not blocked
            assert repacker.skips == 1
            assert repacker.steps == 0
        finally:
            locks.release_all(reader)
        assert repacker.step() is not None  # proceeds once the reader left

    def test_repacker_is_the_preferred_deadlock_victim(self):
        # The background repacker's birth stamp is far above any session's,
        # so it can never doom a real transaction on its behalf.
        from repro.server.repack import _REPACK_BIRTH

        assert _REPACK_BIRTH > 1 << 40

    def test_queries_unchanged_after_steps(self):
        db = _degraded_db()
        repacker = AutoRepacker(db, LockManager())
        before = db.execute("SELECT key FROM t WHERE key #= 'word';")
        for _ in range(10):
            if repacker.step() is None:
                break
        assert db.execute("SELECT key FROM t WHERE key #= 'word';") == before


class TestDaemon:
    def test_daemon_repacks_in_background(self):
        db = _degraded_db()
        engine_mutex = threading.RLock()
        with AutoRepacker(
            db, LockManager(), engine_mutex, interval=0.005
        ) as repacker:
            deadline = time.monotonic() + 10.0
            while repacker.steps == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert repacker.steps > 0
        assert _fill(db) > 0.0
        # Stopped: no further steps accrue.
        steps = repacker.steps
        time.sleep(0.05)
        assert repacker.steps == steps


class TestClassification:
    def test_repack_takes_exclusive_on_owning_table(self):
        db = _degraded_db()
        assert table_locks(parse("REPACK INDEX t_idx;"), db) == [
            (table_key("t"), LockMode.EXCLUSIVE)
        ]
        # CHECK INDEX names the index too; its SHARED lock is the table's.
        assert table_locks(parse("CHECK INDEX t_idx"), db) == [
            (table_key("t"), LockMode.SHARED)
        ]

    def test_repack_unknown_index_locks_nothing(self):
        db = _degraded_db()
        assert table_locks(parse("REPACK INDEX nope;"), db) == []
        assert table_locks(parse("REPACK INDEX t_idx;"), None) == []

    def test_declare_cursor_takes_shared_via_inner_select(self):
        assert table_locks(parse("DECLARE c CURSOR FOR SELECT * FROM t;")) == [
            (table_key("t"), LockMode.SHARED)
        ]

    def test_fetch_and_close_lock_nothing(self):
        assert table_locks(parse("FETCH 10 FROM c;")) == []
        assert table_locks(parse("FETCH ALL FROM c;")) == []
        assert table_locks(parse("CLOSE c;")) == []


class TestPerWaiterWakeups:
    def _park_two_waiters(self, manager: LockManager):
        """Two holders, two parked waiters on distinct keys."""
        holder_a = LockOwner("hold-a", 1)
        holder_b = LockOwner("hold-b", 2)
        manager.acquire(holder_a, "k1", LockMode.EXCLUSIVE)
        manager.acquire(holder_b, "k2", LockMode.EXCLUSIVE)
        done: dict[str, bool] = {}

        def wait_on(key: str, name: str, birth: int) -> None:
            owner = LockOwner(name, birth)
            manager.acquire(owner, key, LockMode.EXCLUSIVE)
            done[name] = True
            manager.release_all(owner)

        threads = [
            threading.Thread(
                target=wait_on, args=("k1", "wait-1", 3), daemon=True
            ),
            threading.Thread(
                target=wait_on, args=("k2", "wait-2", 4), daemon=True
            ),
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 5.0
        while (
            manager.stats()["waiters"] < 2 and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert manager.stats()["waiters"] == 2
        return holder_a, holder_b, threads, done

    def test_release_wakes_only_the_affected_waiter(self):
        manager = LockManager()
        holder_a, holder_b, threads, done = self._park_two_waiters(manager)
        manager.release_all(holder_a)
        threads[0].join(timeout=5.0)
        assert done.get("wait-1") is True
        time.sleep(0.05)  # give a stray wakeup time to show up
        # Only k1's waiter ran; k2's waiter never left wait().
        assert manager.stats()["wakeups"] == 1
        assert done.get("wait-2") is None
        manager.release_all(holder_b)
        threads[1].join(timeout=5.0)
        assert manager.stats()["wakeups"] == 2

    def test_stats_expose_wakeups(self):
        manager = LockManager()
        assert manager.stats()["wakeups"] == 0
