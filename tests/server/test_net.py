"""TCP protocol tests: round trips, typed error re-raise, session-per-conn."""

from __future__ import annotations

import threading
import time

import pytest

from repro.engine.sql import Database
from repro.errors import LockTimeoutError, SQLError, TxnAbortedError
from repro.server.manager import SessionManager
from repro.server.net import SQLClient, SQLServer
from repro.settings import SETTINGS


@pytest.fixture
def server():
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("CREATE INDEX t_idx ON t USING SP_GiST (key SP_GiST_trie);")
    db.execute("INSERT INTO t VALUES ('alpha', 1), ('beta', 2);")
    settings = SETTINGS.replace(
        lock_timeout=0.5, statement_timeout=5.0
    )
    manager = SessionManager(db, settings=settings)
    with SQLServer(manager) as srv:
        yield srv
    manager.stop()


def _client(server) -> SQLClient:
    host, port = server.address
    return SQLClient(host, port)


class TestRoundTrip:
    def test_select_and_dml(self, server):
        with _client(server) as client:
            assert client.execute("SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]
            assert client.execute("INSERT INTO t VALUES ('gamma', 3);") == "INSERT 0 1"
            rows = client.execute("SELECT * FROM t WHERE key = 'gamma';")
            assert rows == [("gamma", 3)]

    def test_status_strings(self, server):
        with _client(server) as client:
            assert client.execute("BEGIN;") == "BEGIN"
            assert client.execute("COMMIT;") == "COMMIT"

    def test_typed_sql_error(self, server):
        with _client(server) as client:
            with pytest.raises(SQLError):
                client.execute("SELECT * FROM nowhere;")

    def test_aborted_block_error_crosses_the_wire(self, server):
        with _client(server) as client:
            client.execute("BEGIN;")
            with pytest.raises(SQLError):
                client.execute("SELECT * FROM nowhere;")
            with pytest.raises(TxnAbortedError, match="current transaction is aborted"):
                client.execute("SELECT * FROM t;")
            assert client.execute("COMMIT;") == "ROLLBACK"

    def test_lock_timeout_crosses_the_wire(self, server):
        with _client(server) as holder, _client(server) as waiter:
            holder.execute("BEGIN;")
            holder.execute("UPDATE t SET key = 'held' WHERE id = 1;")
            with pytest.raises(LockTimeoutError):
                waiter.execute("UPDATE t SET key = 'x' WHERE id = 1;")
            holder.execute("ROLLBACK;")


class TestSessionPerConnection:
    def test_connections_are_isolated_transactions(self, server):
        with _client(server) as a, _client(server) as b:
            a.execute("BEGIN;")
            a.execute("INSERT INTO t VALUES ('uncommitted', 50);")
            # b's snapshot must not see a's in-flight insert.
            assert b.execute("SELECT * FROM t WHERE id = 50;") == []
            a.execute("COMMIT;")
            assert b.execute("SELECT * FROM t WHERE id = 50;") == [
                ("uncommitted", 50)
            ]

    def test_disconnect_rolls_back_and_releases(self, server):
        a = _client(server)
        a.execute("BEGIN;")
        a.execute("UPDATE t SET key = 'locked' WHERE id = 1;")
        a.close()  # drops the connection: rollback + lock release
        deadline = time.monotonic() + 5
        with _client(server) as b:
            while time.monotonic() < deadline:
                try:
                    b.execute("UPDATE t SET key = 'won' WHERE id = 1;")
                    break
                except LockTimeoutError:
                    continue
            else:
                pytest.fail("disconnect did not release the row lock")
            assert b.execute("SELECT * FROM t WHERE id = 1;") == [("won", 1)]

    def test_concurrent_clients(self, server):
        def insert_batch(base):
            with _client(server) as client:
                for i in range(5):
                    client.execute(
                        f"INSERT INTO t VALUES ('c{base + i:03d}', {base + i});"
                    )

        threads = [
            threading.Thread(target=insert_batch, args=(100 + j * 10,))
            for j in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        with _client(server) as client:
            rows = client.execute("SELECT * FROM t WHERE key >= 'c';")
            assert len(rows) == 20
