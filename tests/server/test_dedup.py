"""Exactly-once server machinery: DedupCache, keyed statements, shedding
under failover.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.sql import Database
from repro.errors import ReplicationError, ReproError, ServerOverloadedError
from repro.server.bridge import ReplicatedDatabase
from repro.server.manager import DedupCache, PendingStatement, SessionManager
from repro.replication.replicaset import ReplicaSet
from repro.settings import SETTINGS
from tests.server import Parked


def _db() -> Database:
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("INSERT INTO t VALUES ('alpha', 1);")
    return db


def _pending() -> PendingStatement:
    return PendingStatement()


class TestDedupCacheUnit:
    def test_fresh_key_reserves(self) -> None:
        cache = DedupCache(8)
        assert cache.begin("k1", _pending()) is None

    def test_inflight_duplicate_joins_the_original(self) -> None:
        cache = DedupCache(8)
        original = _pending()
        cache.begin("k1", original)
        joined = cache.begin("k1", _pending())
        assert joined is original
        assert cache.stats["joined"] == 1

    def test_completed_key_replays_the_outcome(self) -> None:
        cache = DedupCache(8)
        cache.begin("k1", _pending())
        cache.finish("k1", ("ok", "INSERT 0 1"))
        assert cache.begin("k1", _pending()) == ("ok", "INSERT 0 1")
        assert cache.stats["hits"] == 1

    def test_release_forgets_the_reservation(self) -> None:
        cache = DedupCache(8)
        cache.begin("k1", _pending())
        cache.release("k1")
        assert cache.begin("k1", _pending()) is None  # fresh again
        assert cache.lookup("k1") is None

    def test_lru_eviction_is_bounded(self) -> None:
        cache = DedupCache(2)
        for i in range(3):
            key = f"k{i}"
            cache.begin(key, _pending())
            cache.finish(key, ("ok", i))
        assert len(cache) == 2
        assert cache.lookup("k0") is None  # oldest evicted
        assert cache.lookup("k2") == ("ok", 2)
        assert cache.stats["evicted"] == 1

    def test_recent_hit_refreshes_lru_position(self) -> None:
        cache = DedupCache(2)
        for i in range(2):
            cache.begin(f"k{i}", _pending())
            cache.finish(f"k{i}", ("ok", i))
        cache.begin("k0", _pending())  # hit refreshes k0
        cache.begin("k2", _pending())
        cache.finish("k2", ("ok", 2))
        assert cache.lookup("k0") == ("ok", 0)  # survived
        assert cache.lookup("k1") is None       # k1 paid for k2

    def test_indoubt_outcome_round_trips(self) -> None:
        cache = DedupCache(8)
        cache.begin("k1", _pending())
        cache.finish("k1", ("indoubt", "quorum unreachable"))
        assert cache.begin("k1", _pending()) == ("indoubt", "quorum unreachable")


class TestManagerExactlyOnce:
    def test_keyed_resend_applies_once(self) -> None:
        with SessionManager(_db()) as mgr:
            s = mgr.connect()
            first = mgr.execute(
                s, "INSERT INTO t VALUES ('once', 2);", key="mk-1")
            again = mgr.execute(
                s, "INSERT INTO t VALUES ('once', 2);", key="mk-1")
            assert first == again == "INSERT 0 1"
            rows = mgr.execute(s, "SELECT * FROM t WHERE key = 'once';")
            assert len(rows) == 1
            assert mgr.stats["dedup_hits"] == 1

    def test_inflight_resend_joins_the_original(self) -> None:
        # A resend on another connection while the first attempt still
        # runs waits for that attempt's outcome instead of racing it.
        dedup = DedupCache(8)
        joined = threading.Event()
        begin = dedup.begin

        def signalling_begin(key, pending):
            prior = begin(key, pending)
            if isinstance(prior, PendingStatement):
                joined.set()
            return prior

        dedup.begin = signalling_begin
        with SessionManager(_db(), dedup=dedup) as mgr:
            a, b = mgr.connect(), mgr.connect()
            sql = "INSERT INTO t VALUES ('joined', 6);"
            with mgr.engine_mutex:
                first = Parked(mgr, a, sql, key="join-key")
                assert first.entered.wait(5)
                resend = Parked(mgr, b, sql, key="join-key")
                assert joined.wait(5)
            assert first.join() == resend.join() == "INSERT 0 1"
            assert len(mgr.execute(a, "SELECT * FROM t WHERE key = 'joined';")) == 1
            assert mgr.stats["dedup_hits"] == 1

    def test_poisoned_key_reraises_instead_of_reexecuting(self) -> None:
        dedup = DedupCache(8)
        dedup.begin("poisoned", _pending())
        dedup.finish("poisoned", ("indoubt", "quorum unreachable"))
        with SessionManager(
            _db(), dedup=dedup
        ) as mgr:
            s = mgr.connect()
            with pytest.raises(ReplicationError):
                mgr.execute(
                    s, "INSERT INTO t VALUES ('never', 3);", key="poisoned")
            # Never executed: the row is absent.
            assert mgr.execute(s, "SELECT * FROM t WHERE key = 'never';") == []

    def test_failed_keyed_statement_releases_the_key(self) -> None:
        dedup = DedupCache(8)
        with SessionManager(
            _db(), dedup=dedup
        ) as mgr:
            s = mgr.connect()
            with pytest.raises(ReproError):
                mgr.execute(s, "SELECT * FROM no_such;", key="failing")
            # A failed attempt never applied: the key must be reusable.
            assert dedup.lookup("failing") is None
            assert mgr.execute(
                s, "INSERT INTO t VALUES ('retry', 4);", key="failing"
            ) == "INSERT 0 1"

    def test_keyed_reads_never_shed(self) -> None:
        def reader(sql):  # pragma: no cover - must not be called
            raise AssertionError("keyed statement was shed")

        settings = SETTINGS.replace(
            max_queue=64, shed_threshold=0)
        with SessionManager(
            _db(), settings=settings, shed_reader=reader
        ) as mgr:
            s = mgr.connect()
            # shed_threshold=0 sheds every eligible read — but a keyed
            # statement must take the dedup path on the primary.
            rows = mgr.execute(
                s, "SELECT * FROM t WHERE id = 1;", key="keyed-read")
            assert rows == [("alpha", 1)]
            assert mgr.stats["shed"] == 0


class TestShedUnderFailover:
    """shed_threshold standby reads keep answering across a failover."""

    def test_standby_reads_survive_primary_crash(self, tmp_path) -> None:
        settings = SETTINGS.replace(
            max_queue=64, shed_threshold=0,
            statement_timeout=10.0)
        rs = ReplicaSet(
            str(tmp_path), kind="trie", replicas=2, quorum=1, fsync=False)
        rdb = ReplicatedDatabase(rs)
        mgr = SessionManager(rdb, settings=settings)

        def locked_shed(sql):
            with mgr.engine_mutex:
                return rdb.standby_reader(sql)

        mgr.shed_reader = locked_shed
        try:
            s = mgr.connect("writer")
            mgr.execute(s, "INSERT INTO data VALUES ('pivot', 1);", key="w-1")
            with mgr.engine_mutex:
                rs.tick()  # let the standby apply the shipped commit

            read_sql = "SELECT * FROM data WHERE key = 'pivot';"
            assert mgr.execute(s, read_sql) == [("pivot", 1)]
            assert mgr.stats["shed"] >= 1

            # Readers hammer the shed path while the primary dies and a
            # standby is promoted underneath them.
            errors: list[BaseException] = []
            results: list[int] = []
            stop = threading.Event()

            def reader_loop() -> None:
                r = mgr.connect()
                while not stop.is_set():
                    try:
                        rows = mgr.execute(r, read_sql)
                        results.append(len(rows))
                    except ReproError as exc:
                        errors.append(exc)  # typed, retryable — acceptable
                    except BaseException as exc:  # noqa: BLE001
                        errors.append(exc)
                        stop.set()
                        raise

            threads = [threading.Thread(target=reader_loop) for _ in range(2)]
            for thread in threads:
                thread.start()
            with mgr.engine_mutex:
                rs.primary.crash()
            for _ in range(12):
                with mgr.engine_mutex:
                    rs.tick()
            stop.set()
            for thread in threads:
                thread.join(timeout=10)

            # Every successful read through the window saw the row, and
            # only typed errors (never a raw crash) escaped.
            assert results and all(n == 1 for n in results)
            assert all(isinstance(e, ReproError) for e in errors)
            # After promotion the shed path still answers.
            assert mgr.execute(s, read_sql) == [("pivot", 1)]
        finally:
            mgr.stop()


class TestBackpressureRecovery:
    def test_rejected_keyed_write_is_retryable(self) -> None:
        # An admission rejection must release the dedup reservation so
        # the client's retry (same key) is not treated as a duplicate.
        settings = SETTINGS.replace(max_queue=1, shed_threshold=1000)
        dedup = DedupCache(8)
        with SessionManager(_db(), settings=settings, dedup=dedup) as mgr:
            a, b = mgr.connect(), mgr.connect()
            with mgr.engine_mutex:
                first = Parked(mgr, a, "SELECT * FROM t;")
                assert first.entered.wait(5)
                with pytest.raises(ServerOverloadedError):
                    mgr.execute(
                        b, "INSERT INTO t VALUES ('bp', 5);", key="bp-key")
                assert dedup.lookup("bp-key") is None
                # Neither recorded nor reserved: a fresh begin reserves it.
                assert dedup.begin("bp-key", _pending()) is None
                dedup.release("bp-key")
            first.join()
            # The retry with the same key succeeds once load drops.
            assert mgr.execute(
                b, "INSERT INTO t VALUES ('bp', 5);", key="bp-key"
            ) == "INSERT 0 1"
            rows = mgr.execute(b, "SELECT * FROM t WHERE key = 'bp';")
            assert len(rows) == 1
