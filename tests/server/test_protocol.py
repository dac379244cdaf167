"""Framing hardening: misbehaving raw sockets against the line protocol.

Satellite of PR 9: lines over ``max_message_bytes``, partial frames
(mid-frame EOF), and lines that are not a JSON request object (bare SQL
included) must surface as a typed :class:`ProtocolError` — and a partial
or bare statement must NEVER execute — instead of hanging the handler or
leaking a json traceback.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.engine.sql import Database
from repro.server.manager import SessionManager
from repro.server.net import SQLClient, SQLServer
from repro.settings import SETTINGS

LIMIT = 4096  # small max_message_bytes so oversize tests stay cheap


@pytest.fixture
def stack():
    db = Database()
    db.execute("CREATE TABLE t (key VARCHAR(20), id INT);")
    db.execute("INSERT INTO t VALUES ('alpha', 1);")
    settings = SETTINGS.replace(worker_threads=2, max_message_bytes=LIMIT)
    manager = SessionManager(db, settings=settings)
    with SQLServer(manager) as srv:
        yield srv, db
    manager.stop()


class RawSocket:
    """A deliberately misbehaving peer: sends bytes, reads JSON lines."""

    def __init__(self, server: SQLServer) -> None:
        self.sock = socket.create_connection(server.address, timeout=5.0)
        self.file = self.sock.makefile("rwb")

    def send(self, data: bytes) -> None:
        self.file.write(data)
        self.file.flush()

    def recv_frame(self) -> dict:
        raw = self.file.readline()
        assert raw.endswith(b"\n"), f"truncated server frame: {raw!r}"
        return json.loads(raw.decode())

    def eof(self) -> bool:
        return self.file.readline() == b""

    def close(self) -> None:
        try:
            self.file.close()
        except OSError:
            pass
        self.sock.close()


class TestOversizedFrames:
    def test_oversized_line_refused_with_close_frame(self, stack) -> None:
        server, _ = stack
        peer = RawSocket(server)
        try:
            peer.send(b'{"sql": "SELECT \'' + b"x" * (LIMIT + 100) + b'\';"}\n')
            frame = peer.recv_frame()
            assert frame["ok"] is False
            assert frame["error"] == "ProtocolError"
            assert "max_message_bytes" in frame["message"]
            assert frame.get("close") is True
            assert peer.eof()  # server hung up after the goodbye
        finally:
            peer.close()


class TestPartialFrames:
    def test_mid_frame_eof_never_executes(self, stack) -> None:
        server, db = stack
        peer = RawSocket(server)
        try:
            # Die mid-line: no trailing newline, then shut down the
            # write side so the server sees EOF inside the frame.
            peer.send(b'{"sql": "INSERT INTO t VALUES (\'partial\', 9)"}')
            peer.sock.shutdown(socket.SHUT_WR)
            frame = peer.recv_frame()
            assert frame["ok"] is False
            assert frame["error"] == "ProtocolError"
            assert "partial" in frame["message"]
            assert frame.get("close") is True
        finally:
            peer.close()
        # The half-received statement must not have run.
        assert db.execute("SELECT * FROM t WHERE key = 'partial';") == []


class TestMalformedJsonFrames:
    @pytest.mark.parametrize(
        "line",
        [
            b'{"sql": "SELECT 1;"\n',        # truncated JSON
            b"{}\n",                          # missing sql
            b'{"sql": 42}\n',                 # sql not a string
            b'{"sql": "   "}\n',              # blank sql
            b'{"sql": "SELECT 1;", "key": 7}\n',        # key not a string
            b'{"sql": "SELECT 1;", "timeout": "soon"}\n',  # timeout not a number
        ],
    )
    def test_bad_frame_reports_and_keeps_serving(self, stack, line) -> None:
        server, _ = stack
        peer = RawSocket(server)
        try:
            peer.send(line)
            frame = peer.recv_frame()
            assert frame["ok"] is False
            assert frame["error"] == "ProtocolError"
            # The line framed correctly, so the connection stays usable.
            peer.send(b'{"sql": "SELECT * FROM t WHERE key = \'alpha\';"}\n')
            frame = peer.recv_frame()
            assert frame["ok"] is True
            assert frame["rows"] == [["alpha", 1]]
        finally:
            peer.close()

    def test_bare_sql_line_rejected_and_never_executed(self, stack) -> None:
        server, db = stack
        peer = RawSocket(server)
        try:
            peer.send(b"INSERT INTO t VALUES ('bare', 3);\n")
            frame = peer.recv_frame()
            assert frame["ok"] is False
            assert frame["error"] == "ProtocolError"
            assert frame.get("close") is None  # still in sync: keeps serving
            peer.send(b'{"op": "ping"}\n')
            assert peer.recv_frame() == {"ok": True, "pong": True}
        finally:
            peer.close()
        assert db.execute("SELECT * FROM t WHERE key = 'bare';") == []


class TestWellFormedFrames:
    def test_ping_pong(self, stack) -> None:
        server, _ = stack
        peer = RawSocket(server)
        try:
            peer.send(b'{"op": "ping"}\n')
            assert peer.recv_frame() == {"ok": True, "pong": True}
        finally:
            peer.close()

    def test_keyed_json_frame_round_trip(self, stack) -> None:
        server, _ = stack
        peer = RawSocket(server)
        try:
            req = {"sql": "INSERT INTO t VALUES ('keyed', 2);", "key": "rk-1"}
            peer.send(json.dumps(req).encode() + b"\n")
            assert peer.recv_frame() == {"ok": True, "status": "INSERT 0 1"}
            # Resend: dedup answers without applying again.
            peer.send(json.dumps(req).encode() + b"\n")
            assert peer.recv_frame() == {"ok": True, "status": "INSERT 0 1"}
            peer.send(b'{"sql": "SELECT * FROM t WHERE key = \'keyed\';"}\n')
            assert peer.recv_frame()["rows"] == [["keyed", 2]]
        finally:
            peer.close()


class TestClientSideHardening:
    def test_client_raises_protocol_error_on_oversized_response(
        self, stack
    ) -> None:
        server, db = stack
        rows = ", ".join(f"('bulk{i:04d}', {i})" for i in range(20))
        db.execute(f"INSERT INTO t VALUES {rows};")
        host, port = server.address
        with SQLClient(host, port) as client:
            client.max_message_bytes = 64  # shrink the client's own limit
            from repro.errors import ProtocolError

            with pytest.raises(ProtocolError):
                client.execute("SELECT * FROM t;")  # 21-row frame >> 64 bytes

    def test_client_connection_lost_on_abrupt_server_close(self, stack) -> None:
        server, _ = stack
        host, port = server.address
        client = SQLClient(host, port)
        try:
            client._sock.shutdown(socket.SHUT_RDWR)
            from repro.errors import ConnectionLostError

            with pytest.raises(ConnectionLostError):
                client.execute("SELECT * FROM t;")
        finally:
            client.close()
