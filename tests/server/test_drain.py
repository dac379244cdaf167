"""Graceful drain: refuse -> grace -> abort, with goodbyes on the wire."""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.engine.sql import Database
from repro.errors import ServerDrainingError, SessionClosedError
from repro.server.manager import DedupCache, PendingStatement, SessionManager
from repro.server.net import SQLClient, SQLServer
from repro.settings import SETTINGS
from tests.server import Parked


def make_stack(**settings_overrides):
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("INSERT INTO t VALUES ('alpha', 1);")
    settings = SETTINGS.replace(
        drain_timeout=0.5, **settings_overrides)
    dedup = DedupCache(64)
    manager = SessionManager(db, settings=settings, dedup=dedup)
    server = SQLServer(manager).start()
    return db, manager, server, dedup


class TestManagerDrain:
    def test_drain_reports_finished_and_aborted(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            session = manager.connect("c1")
            manager.execute(session, "INSERT INTO t VALUES ('pre', 2);")
            stats = server.drain(timeout=0.5)
            assert set(stats) == {"finished", "aborted"}
            assert stats["aborted"] >= 0
        finally:
            manager.stop()

    def test_connect_refused_while_draining(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            server.drain(timeout=0.2)
            with pytest.raises(ServerDrainingError):
                manager.connect("late")
        finally:
            manager.stop()

    def test_open_transaction_counted_aborted_and_rolled_back(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            session = manager.connect("txn")
            manager.execute(session, "BEGIN")
            manager.execute(session, "INSERT INTO t VALUES ('open', 3);")
            stats = server.drain(timeout=0.3)
            assert stats["aborted"] >= 1
            # The uncommitted insert must not survive the drain.
            assert db.execute("SELECT * FROM t WHERE key = 'open';") == []
        finally:
            manager.stop()

    def test_drain_releases_keyed_reservations_for_queued_statements(
        self,
    ) -> None:
        # A statement aborted before running never applied: its dedup
        # reservation must be released so a retry elsewhere can run.
        db, manager, server, dedup = make_stack()
        try:
            idle = manager.connect("idle")  # connected first, closed first
            session = manager.connect("keyed")
            manager.execute(
                session, "INSERT INTO t VALUES ('k', 4);", key="done-key")
            closing = threading.Event()
            close = idle.close

            def signalling_close() -> None:
                closing.set()
                close()

            idle.close = signalling_close
            with manager.engine_mutex:
                running = Parked(manager, session, "SELECT * FROM t;")
                assert running.entered.wait(5)
                waiting = Parked(
                    manager, session, "INSERT INTO t VALUES ('q', 6);",
                    key="drain-key")
                drainer = threading.Thread(target=server.drain, args=(0.2,))
                drainer.start()
                # The grace period is over and drain is closing sessions;
                # closing needs the engine mutex, so let go of it.
                assert closing.wait(5)
            drainer.join(timeout=10)
            assert not drainer.is_alive()
            assert len(running.join()) == 2
            with pytest.raises(ServerDrainingError):
                waiting.join()
            # The completed key stays recorded; the unrun one is released.
            assert dedup.lookup("done-key") is not None
            assert dedup.lookup("drain-key") is None
            assert dedup.begin("drain-key", PendingStatement()) is None
            assert db.execute("SELECT * FROM t WHERE key = 'q';") == []
        finally:
            manager.stop()

    def test_block_closed_during_row_lock_wait_does_not_commit(self) -> None:
        # X's in-block UPDATE waits on the row Y's block holds. Drain
        # closes X first (connected first), then Y, which frees the row:
        # X's statement must not then run again as autocommit.
        db, manager, server, _ = make_stack(
            lock_timeout=30.0, statement_timeout=60.0)
        try:
            x = manager.connect("x")
            y = manager.connect("y")
            manager.execute(y, "BEGIN;")
            manager.execute(y, "UPDATE t SET key = 'y' WHERE id = 1;")
            manager.execute(x, "BEGIN;")
            waiting = threading.Event()
            acquire = manager.locks.acquire

            def signalling_acquire(owner, key, mode, **kwargs):
                if key[0] == "row":
                    waiting.set()
                return acquire(owner, key, mode, **kwargs)

            manager.locks.acquire = signalling_acquire
            update = Parked(manager, x, "UPDATE t SET key = 'x' WHERE id = 1;")
            assert waiting.wait(5)
            assert manager.drain(timeout=0.0)["aborted"] == 2
            with pytest.raises(SessionClosedError):
                update.join()
            assert db.execute("SELECT * FROM t WHERE id = 1;") == [("alpha", 1)]
            assert manager.locks.stats()["held"] == 0
        finally:
            manager.stop()


class TestWireDrain:
    def test_idle_connection_gets_close_frame(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            peer = socket.create_connection(server.address, timeout=5.0)
            reader = peer.makefile("rb")
            # A ping round trip puts the handler in its blocking readline:
            # the connection is registered and idle when the drain starts.
            peer.sendall(b'{"op": "ping"}\n')
            assert json.loads(reader.readline().decode())["pong"] is True
            done = threading.Event()

            def drain() -> None:
                server.drain(timeout=0.3)
                done.set()

            thread = threading.Thread(target=drain)
            thread.start()
            frame = json.loads(reader.readline().decode())
            assert frame["ok"] is False
            assert frame["error"] == "ServerDrainingError"
            assert frame.get("close") is True
            assert reader.readline() == b""  # orderly close after goodbye
            thread.join(timeout=5)
            assert done.is_set()
            peer.close()
        finally:
            manager.stop()

    def test_backlogged_connection_gets_close_frame(self) -> None:
        # A connection the accept loop never took (it stopped first) sits
        # in the listen backlog; drain must still answer it with the
        # goodbye frame rather than let the kernel reset it.
        db, manager, server, _ = make_stack()
        try:
            server.shutdown()
            peer = socket.create_connection(server.address, timeout=5.0)
            reader = peer.makefile("rb")
            server.drain(timeout=0.1)
            frame = json.loads(reader.readline().decode())
            assert frame["error"] == "ServerDrainingError"
            assert frame.get("close") is True
            assert reader.readline() == b""
            peer.close()
        finally:
            manager.stop()

    def test_client_marks_connection_closed_on_drain_frame(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            host, port = server.address
            client = SQLClient(host, port)
            client.execute("SELECT * FROM t WHERE key = 'alpha';")
            thread = threading.Thread(target=server.drain, args=(0.3,))
            thread.start()
            # The goodbye either arrives as a close frame (the clean path,
            # setting server_closed) or the socket dies first with an RST
            # (ConnectionLostError) — both are typed, retryable signals.
            from repro.errors import ConnectionLostError

            with pytest.raises((ServerDrainingError, ConnectionLostError)) as exc:
                for _ in range(500):
                    client.execute("SELECT * FROM t;")
            if isinstance(exc.value, ServerDrainingError):
                assert client.server_closed
            thread.join(timeout=5)
            client.close()
        finally:
            manager.stop()

    def test_connect_after_drain_is_refused(self) -> None:
        db, manager, server, _ = make_stack()
        try:
            address = server.address
            server.drain(timeout=0.2)
            with pytest.raises(OSError):
                socket.create_connection(address, timeout=0.5)
        finally:
            manager.stop()

    def test_dedup_survives_drain_into_successor(self) -> None:
        db, manager, server, dedup = make_stack()
        try:
            host, port = server.address
            with SQLClient(host, port) as client:
                client.execute(
                    "INSERT INTO t VALUES ('sticky', 5);", key="restart-key")
            server.drain(timeout=0.3)
            manager.stop()
            # Successor shares the dedup cache: the resend dedups.
            manager = SessionManager(
                db, dedup=dedup)
            server = SQLServer(manager).start()
            host, port = server.address
            with SQLClient(host, port) as client:
                client.execute(
                    "INSERT INTO t VALUES ('sticky', 5);", key="restart-key")
            rows = db.execute("SELECT * FROM t WHERE key = 'sticky';")
            assert len(rows) == 1
            server.stop()
        finally:
            manager.stop()
