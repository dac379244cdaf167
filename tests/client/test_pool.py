"""ConnectionPool: reuse, bounded waits, health checks, discards."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.client.pool import ConnectionPool
from repro.engine.sql import Database
from repro.errors import PoolTimeoutError
from repro.server.manager import SessionManager
from repro.server.net import SQLServer


@pytest.fixture
def server():
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("INSERT INTO t VALUES ('alpha', 1);")
    manager = SessionManager(db)
    with SQLServer(manager) as srv:
        yield srv
    manager.stop()


def make_pool(server, **kw) -> ConnectionPool:
    kw.setdefault("size", 2)
    kw.setdefault("acquire_timeout", 0.3)
    kw.setdefault("connect_timeout", 1.0)
    return ConnectionPool(server.address, **kw)


class TestReuse:
    def test_release_then_acquire_reuses_the_socket(self, server) -> None:
        with make_pool(server) as pool:
            conn = pool.acquire()
            assert conn.execute("SELECT * FROM t;") == [("alpha", 1)]
            pool.release(conn)
            again = pool.acquire()
            assert again is conn
            pool.release(again)

    def test_distinct_connections_while_both_held(self, server) -> None:
        with make_pool(server) as pool:
            a, b = pool.acquire(), pool.acquire()
            assert a is not b
            assert pool.stats() == {"live": 2, "idle": 0}
            pool.release(a)
            pool.release(b)
            assert pool.stats() == {"live": 2, "idle": 2}


class TestBoundedness:
    def test_acquire_times_out_when_pool_exhausted(self, server) -> None:
        with make_pool(server, size=1, acquire_timeout=0.1) as pool:
            conn = pool.acquire()
            with pytest.raises(PoolTimeoutError):
                pool.acquire()
            pool.release(conn)

    def test_release_wakes_a_waiter(self, server) -> None:
        with make_pool(server, size=1, acquire_timeout=5.0) as pool:
            conn = pool.acquire()
            got = []

            def waiter() -> None:
                other = pool.acquire()
                got.append(other)
                pool.release(other)

            thread = threading.Thread(target=waiter)
            thread.start()
            pool.release(conn)
            thread.join(timeout=5)
            assert got and got[0] is conn

    def test_failed_dial_frees_the_slot(self, server) -> None:
        # Grab a port that refuses connections.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = probe.getsockname()
        probe.close()
        pool = ConnectionPool(
            dead, size=1, acquire_timeout=0.1, connect_timeout=0.2)
        with pytest.raises(OSError):
            pool.acquire()
        # The reserved slot was returned: the next failure is again the
        # dial error, not a PoolTimeoutError from a leaked reservation.
        with pytest.raises(OSError):
            pool.acquire()
        pool.close()


class TestHealthAndDiscard:
    def test_stale_idle_connection_is_pinged_before_reuse(self, server) -> None:
        with make_pool(server, health_check_interval=0.0) as pool:
            conn = pool.acquire()
            pool.release(conn)
            again = pool.acquire()  # idle >= 0.0s → ping → healthy → reuse
            assert again is conn
            pool.release(again)

    def test_dead_idle_connection_discarded_on_acquire(self, server) -> None:
        with make_pool(server, health_check_interval=0.0) as pool:
            conn = pool.acquire()
            pool.release(conn)
            # Kill the socket behind the pool's back (shutdown, not close:
            # the makefile() handle keeps the fd alive past a bare close).
            conn.client._sock.shutdown(socket.SHUT_RDWR)
            fresh = pool.acquire()
            assert fresh is not conn
            assert fresh.execute("SELECT * FROM t;") == [("alpha", 1)]
            pool.release(fresh)
            assert pool.stats()["live"] == 1

    def test_broken_connection_not_requeued(self, server) -> None:
        with make_pool(server) as pool:
            conn = pool.acquire()
            conn.broken = True
            pool.release(conn)
            assert pool.stats() == {"live": 0, "idle": 0}


class TestLifecycle:
    def test_acquire_after_close_refused(self, server) -> None:
        pool = make_pool(server)
        pool.close()
        with pytest.raises(PoolTimeoutError):
            pool.acquire()

    def test_release_after_close_discards(self, server) -> None:
        pool = make_pool(server)
        conn = pool.acquire()
        pool.close()
        pool.release(conn)
        assert pool.stats()["idle"] == 0
