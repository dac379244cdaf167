"""ResilientClient end-to-end: retries, exactly-once, replay, failover."""

from __future__ import annotations

import random
import socket
import threading

import pytest

from repro.client import ResilientClient, RetryPolicy
from repro.engine.sql import Database
from repro.errors import RetriesExceededError, SQLError
from repro.server.manager import DedupCache, SessionManager
from repro.server.net import SQLServer
from repro.settings import SETTINGS


class Cluster:
    """A restartable server whose successors share the dedup cache."""

    def __init__(self) -> None:
        self.settings = SETTINGS.replace(worker_threads=2, drain_timeout=0.5)
        self.db = Database()
        self.db.execute("CREATE TABLE t (key VARCHAR(24), id INT);")
        self.db.execute(
            "CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);")
        self.dedup = DedupCache(self.settings.dedup_cache_size)
        self.manager = SessionManager(
            self.db, settings=self.settings, dedup=self.dedup)
        self.server = SQLServer(self.manager).start()

    def restart(self) -> None:
        self.server.drain(timeout=0.5)
        self.manager = SessionManager(
            self.db, settings=self.settings, dedup=self.dedup)
        self.server = SQLServer(self.manager).start()

    def stop(self) -> None:
        self.server.stop()
        self.manager.stop()

    def rows(self, key: str) -> list:
        return self.db.execute(f"SELECT * FROM t WHERE key = '{key}';")


@pytest.fixture
def cluster():
    c = Cluster()
    yield c
    c.stop()


def make_client(cluster, **kw) -> ResilientClient:
    kw.setdefault(
        "policy",
        RetryPolicy(max_retries=20, backoff_base=0.005, backoff_cap=0.05,
                    rng=random.Random(0)))
    kw.setdefault("op_timeout", 10.0)
    kw.setdefault("pool_size", 2)
    kw.setdefault("connect_timeout", 1.0)
    kw.setdefault("breaker_failure_threshold", 3)
    kw.setdefault("breaker_reset_timeout", 0.02)
    kw.setdefault("discover", lambda: [cluster.server.address])
    return ResilientClient(**kw)


class TestAutocommit:
    def test_write_then_read(self, cluster) -> None:
        with make_client(cluster) as client:
            assert client.execute(
                "INSERT INTO t VALUES ('alpha', 1);") == "INSERT 0 1"
            assert client.execute(
                "SELECT * FROM t WHERE key = 'alpha';") == [("alpha", 1)]

    def test_explicit_key_dedups_a_resend(self, cluster) -> None:
        with make_client(cluster) as client:
            first = client.execute(
                "INSERT INTO t VALUES ('dup', 1);", key="k-dup")
            again = client.execute(
                "INSERT INTO t VALUES ('dup', 1);", key="k-dup")
            assert first == again == "INSERT 0 1"
        assert len(cluster.rows("dup")) == 1

    def test_keyed_resend_dedups_across_restart(self, cluster) -> None:
        with make_client(cluster) as client:
            client.execute("INSERT INTO t VALUES ('boot', 7);", key="k-boot")
            cluster.restart()
            client.execute("INSERT INTO t VALUES ('boot', 7);", key="k-boot")
        assert len(cluster.rows("boot")) == 1

    def test_sql_errors_propagate_without_retry(self, cluster) -> None:
        with make_client(cluster) as client:
            with pytest.raises(SQLError):
                client.execute("SELECT * FROM no_such_table;")

    def test_dead_endpoint_exhausts_retries(self, cluster) -> None:
        address = cluster.server.address
        cluster.server.stop()
        client = ResilientClient(
            endpoints=[address],
            policy=RetryPolicy(max_retries=2, backoff_base=0.001,
                               backoff_cap=0.005, rng=random.Random(0)),
            op_timeout=2.0,
            connect_timeout=0.2,
        )
        with pytest.raises(RetriesExceededError):
            client.execute("SELECT * FROM t;")
        client.close()


class TestFailover:
    def test_execute_rides_through_a_restart(self, cluster) -> None:
        with make_client(cluster) as client:
            client.execute("INSERT INTO t VALUES ('pre', 1);")
            cluster.restart()  # discovery re-resolves to the new port
            client.execute("INSERT INTO t VALUES ('post', 2);")
            assert len(cluster.rows("pre")) == 1
            assert len(cluster.rows("post")) == 1

    def test_pooled_threads_lose_nothing_through_a_drain(self, cluster) -> None:
        """Two threads share the pool while the server drains and restarts
        mid-run: every operation completes and every insert lands once."""
        threads, ops = 2, 20
        warmed = threading.Barrier(threads + 1)
        failures: list[Exception] = []

        def worker(client, cid):
            for j in range(ops):
                if j == ops // 4:
                    warmed.wait()
                try:
                    if j % 5 < 3:
                        client.execute(f"INSERT INTO t VALUES ('c{cid}', {j});")
                    else:
                        client.execute("SELECT * FROM t WHERE key = 'c0';")
                except Exception as exc:
                    failures.append(exc)

        with make_client(cluster) as client:
            workers = [
                threading.Thread(target=worker, args=(client, cid))
                for cid in range(threads)
            ]
            for thread in workers:
                thread.start()
            warmed.wait()
            cluster.restart()
            for thread in workers:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in workers)
        assert failures == []
        for cid in range(threads):
            assert len(cluster.rows(f"c{cid}")) == 12  # 3 of every 5 ops


class TestTransactions:
    def test_commit_applies_all_statements(self, cluster) -> None:
        with make_client(cluster) as client:
            def block(txn):
                txn.execute("INSERT INTO t VALUES ('txa', 1);")
                txn.execute("INSERT INTO t VALUES ('txb', 2);")
                return "done"

            assert client.run_transaction(block) == "done"
        assert len(cluster.rows("txa")) == 1
        assert len(cluster.rows("txb")) == 1

    def test_caller_exception_rolls_back(self, cluster) -> None:
        with make_client(cluster) as client:
            def block(txn):
                txn.execute("INSERT INTO t VALUES ('gone', 1);")
                raise ValueError("caller bailed")

            with pytest.raises(ValueError):
                client.run_transaction(block)
            assert cluster.rows("gone") == []
            # The connection is reusable afterwards.
            client.execute("INSERT INTO t VALUES ('after', 1);")

    def test_connection_loss_mid_block_replays_whole_function(
        self, cluster
    ) -> None:
        calls = []

        def block(txn):
            calls.append(1)
            txn.execute("INSERT INTO t VALUES ('replay', 1);")
            if len(calls) == 1:
                # Kill the socket under the transaction: the server rolls
                # the block back on disconnect, the driver must replay
                # the WHOLE function, not resume mid-block.
                txn._attempt.conn.client._sock.shutdown(
                    socket.SHUT_RDWR)
                txn.execute("SELECT * FROM t;")  # raises ConnectionLost
            return len(calls)

        with make_client(cluster) as client:
            assert client.run_transaction(block) == 2
        assert len(calls) == 2
        assert len(cluster.rows("replay")) == 1  # replayed, not duplicated

    def test_fn_sql_error_propagates_after_rollback(self, cluster) -> None:
        with make_client(cluster) as client:
            def block(txn):
                txn.execute("INSERT INTO t VALUES ('half', 1);")
                txn.execute("SELECT * FROM no_such_table;")

            with pytest.raises(SQLError):
                client.run_transaction(block)
        assert cluster.rows("half") == []
