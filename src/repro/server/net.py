"""A line-based text protocol over TCP: one request in, one JSON line out.

The wire format is deliberately tiny — the point is the machinery behind
it, not the protocol:

- Client sends one request per line: a JSON object
  ``{"sql": "...", "key": "...", "timeout": 1.5}``. The optional ``key``
  is an idempotency key for exactly-once autocommit writes (the server
  dedup cache absorbs re-sends after a lost ack); the optional
  ``timeout`` is the client's remaining deadline budget in seconds,
  propagated into the server statement deadline, which runs from
  admission. ``{"op": "ping"}`` is a health probe answered with
  ``{"ok": true, "pong": true}``.

- Server replies with exactly one JSON line:
  ``{"ok": true, "rows": [...]}`` for row sets,
  ``{"ok": true, "status": "..."}`` for DDL/DML status strings, or
  ``{"ok": false, "error": "<ExceptionClass>", "message": "..."}``.
  A reply carrying ``"close": true`` is a **connection-close frame**: the
  server is done with this connection (drain, fatal framing violation)
  and will close it after the frame — the pool treats it as an orderly
  goodbye and reconnects elsewhere, not as a statement failure.

- Each TCP connection is one session (at most one open transaction);
  closing the connection rolls the transaction back and drops its locks.

Framing is hardened: lines longer than ``SETTINGS.max_message_bytes``,
mid-frame EOFs, and lines that are not a JSON request object surface as a
typed :class:`~repro.errors.ProtocolError` (and never execute a partial
statement) instead of a hang or a raw ``json`` traceback.

Errors carry their exception class name so :class:`SQLClient` can
re-raise the typed error (``DeadlockError`` stays retryable across the
wire). Non-JSON-native values (points, boxes) are serialized via ``str``.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
from typing import Any

from repro import errors as _errors
from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    ReproError,
    ServerDrainingError,
    ServerError,
)
from repro.obs import METRICS
from repro.server.manager import SessionManager
from repro.settings import SETTINGS

PROTOCOL_ERRORS = METRICS.counter(
    "server_protocol_errors_total",
    "Request frames rejected for violating the line protocol.",
)
DRAIN_CLOSE_FRAMES = METRICS.counter(
    "server_drain_close_frames_total",
    "Connection-close frames emitted while draining.",
)


def _encode(result: Any) -> str:
    if isinstance(result, str):
        payload = {"ok": True, "status": result}
    elif isinstance(result, list):
        payload = {"ok": True, "rows": [list(row) for row in result]}
    else:
        payload = {"ok": True, "status": str(result)}
    return json.dumps(payload, default=str)


def _encode_error(exc: BaseException, close: bool = False) -> str:
    payload: dict[str, Any] = {
        "ok": False, "error": type(exc).__name__, "message": str(exc)
    }
    if close:
        payload["close"] = True
    return json.dumps(payload)


def _parse_request(line: str) -> dict[str, Any]:
    """One request line -> ``{"sql"|"op": ..., "key": ..., "timeout": ...}``.

    Raises :class:`ProtocolError` on anything that is not a well-formed
    JSON request object (a bare SQL line included); nothing is executed.
    """
    try:
        frame = json.loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed JSON request frame: {exc}") from None
    if not isinstance(frame, dict):
        raise ProtocolError(
            f"request frame must be a JSON object, got {type(frame).__name__}"
        )
    if frame.get("op") == "ping":
        return {"op": "ping"}
    sql = frame.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("request frame is missing a 'sql' string")
    key = frame.get("key")
    if key is not None and not isinstance(key, str):
        raise ProtocolError("request 'key' must be a string")
    timeout = frame.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise ProtocolError("request 'timeout' must be a number")
    return {"sql": sql, "key": key, "timeout": timeout}


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: SQLServer = self.server  # type: ignore[assignment]
        manager = server.manager
        server._register(self.connection)
        try:
            try:
                session = manager.connect()
            except ReproError as exc:
                self._send(_encode_error(exc, close=True))
                return
            try:
                self._serve(server, manager, session)
            finally:
                manager.disconnect(session)
        finally:
            server._unregister(self.connection)

    def _send(self, response: str) -> bool:
        try:
            self.wfile.write((response + "\n").encode())
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False

    def _close_frame(self, reason: str) -> None:
        DRAIN_CLOSE_FRAMES.inc()
        self._send(_encode_error(ServerDrainingError(reason), close=True))

    def _serve(self, server: "SQLServer", manager: SessionManager, session) -> None:
        limit = manager.settings.max_message_bytes
        while True:
            if server.draining:
                self._close_frame("server is draining; reconnect elsewhere")
                return
            try:
                raw = self.rfile.readline(limit + 1)
            except (ConnectionResetError, OSError):
                return
            if not raw:
                # Orderly EOF from the peer — or our own drain shutdown
                # of the read side waking an idle connection.
                if server.draining:
                    self._close_frame("server is draining; reconnect elsewhere")
                return
            if len(raw) > limit:
                PROTOCOL_ERRORS.inc()
                # Framing is lost (the rest of the oversized line would
                # read as garbage statements): refuse and close.
                self._send(_encode_error(ProtocolError(
                    f"request exceeds max_message_bytes ({limit})"
                ), close=True))
                return
            if not raw.endswith(b"\n"):
                # Mid-frame EOF: the peer died inside a line. Never
                # execute a partial statement.
                PROTOCOL_ERRORS.inc()
                self._send(_encode_error(ProtocolError(
                    "mid-frame EOF: partial request discarded"
                ), close=True))
                return
            line = raw.decode("utf-8", "replace").strip()
            if not line:
                continue
            if line in (r"\q", "quit", "exit"):
                return
            try:
                request = _parse_request(line)
            except ProtocolError as exc:
                # The line itself framed correctly, so the connection is
                # still in sync: report and keep serving.
                PROTOCOL_ERRORS.inc()
                if not self._send(_encode_error(exc)):
                    return
                continue
            if request.get("op") == "ping":
                if not self._send('{"ok": true, "pong": true}'):
                    return
                continue
            try:
                result = manager.execute(
                    session,
                    request["sql"],
                    key=request.get("key"),
                    statement_timeout=request.get("timeout"),
                )
            except ServerDrainingError as exc:
                self._send(_encode_error(exc, close=True))
                return
            except Exception as exc:  # noqa: BLE001 - ships to client
                response = _encode_error(exc)
            else:
                response = _encode(result)
            if not self._send(response):
                return


class SQLServer(socketserver.ThreadingTCPServer):
    """Serve the manager's sessions over TCP; one thread per connection."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, manager: SessionManager, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.manager = manager
        self._thread: threading.Thread | None = None
        self._draining = False
        self._conns: set[socket.socket] = set()
        self._conns_mu = threading.Lock()

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    @property
    def draining(self) -> bool:
        return self._draining

    def _register(self, conn: socket.socket) -> None:
        with self._conns_mu:
            self._conns.add(conn)

    def _unregister(self, conn: socket.socket) -> None:
        with self._conns_mu:
            self._conns.discard(conn)

    def start(self) -> "SQLServer":
        """Serve in a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-sql-server", daemon=True
        )
        self._thread.start()
        return self

    def drain(self, timeout: float | None = None) -> dict[str, int]:
        """Graceful shutdown: stop accepting, finish or abort, say goodbye.

        1. Stops the accept loop — no new connections.
        2. Wakes idle connections (read-side shutdown) so their handlers
           emit a connection-close frame the pool understands and exit.
        3. Drains the session manager: in-flight statements get up to
           ``timeout`` seconds to finish; stragglers are cleanly aborted
           with :class:`~repro.errors.ServerDrainingError`.
        4. Answers connections still in the listen backlog (the accept
           loop stopped before taking them) with the close frame, then
           closes the listener and joins the accept thread.

        Returns the manager's ``{"finished", "aborted"}`` drain stats.
        """
        self._draining = True
        self.shutdown()
        with self._conns_mu:
            conns = list(self._conns)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        stats = self.manager.drain(timeout=timeout)
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            with self._conns_mu:
                if not self._conns:
                    break
            time.sleep(0.005)
        self._refuse_backlog()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        return stats

    def _refuse_backlog(self) -> None:
        """Send the close frame to every connection waiting to be accepted
        (without this the listener's close would reset them)."""
        frame = (_encode_error(ServerDrainingError(
            "server is draining; reconnect elsewhere"), close=True) + "\n").encode()
        self.socket.setblocking(False)
        while True:
            try:
                conn, _ = self.socket.accept()
            except OSError:  # BlockingIOError: the backlog is empty
                return
            try:
                conn.settimeout(1.0)
                conn.sendall(frame)
                DRAIN_CLOSE_FRAMES.inc()
            except OSError:
                pass
            self.shutdown_request(conn)

    def stop(self) -> None:
        """Stop serving and join the accept thread (abrupt, no goodbyes)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "SQLServer":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()


class SQLClient:
    """A blocking client for the line protocol; re-raises typed errors.

    The bare driver: one socket, no pooling, no retries. The fault-
    tolerant layers live in :mod:`repro.client`, which composes this
    class; application code should normally use
    :class:`repro.client.ResilientClient`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")
        #: Set once the server announced it is closing this connection
        #: (a ``"close": true`` frame): the pool must not reuse it.
        self.server_closed = False
        self.max_message_bytes = SETTINGS.max_message_bytes

    def settimeout(self, timeout: float | None) -> None:
        """Bound every subsequent socket read/write."""
        self._sock.settimeout(timeout)

    def execute(
        self,
        sql: str,
        *,
        key: str | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Run one statement; returns rows (list) or a status string.

        ``key`` stamps the statement with an idempotency key; ``timeout``
        propagates a deadline budget (seconds) to the server.
        """
        payload: dict[str, Any] = {"sql": sql.strip()}
        if key is not None:
            payload["key"] = key
        if timeout is not None:
            payload["timeout"] = timeout
        self._write_line(json.dumps(payload))
        return self._read_response()

    def ping(self) -> bool:
        """Health probe: True iff the server answers with a pong."""
        try:
            self._write_line('{"op": "ping"}')
            raw = self._read_line()
        except ReproError:
            return False
        try:
            return bool(json.loads(raw.decode()).get("pong"))
        except ValueError:
            return False

    # -- wire helpers ----------------------------------------------------------

    def _write_line(self, frame: str) -> None:
        try:
            self._file.write((frame + "\n").encode())
            self._file.flush()
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise ConnectionLostError(f"send failed: {exc}") from None

    def _read_line(self) -> bytes:
        try:
            raw = self._file.readline(self.max_message_bytes + 1)
        except socket.timeout:
            raise ConnectionLostError(
                "timed out waiting for a response (outcome unknown)"
            ) from None
        except (ConnectionResetError, OSError) as exc:
            raise ConnectionLostError(f"receive failed: {exc}") from None
        if not raw:
            raise ConnectionLostError("connection closed by server")
        if len(raw) > self.max_message_bytes:
            raise ProtocolError(
                f"response exceeds max_message_bytes ({self.max_message_bytes})"
            )
        if not raw.endswith(b"\n"):
            raise ProtocolError("mid-frame EOF in response")
        return raw

    def _read_response(self) -> Any:
        raw = self._read_line()
        try:
            payload = json.loads(raw.decode())
        except ValueError as exc:
            raise ProtocolError(f"malformed response frame: {exc}") from None
        if not isinstance(payload, dict) or "ok" not in payload:
            raise ProtocolError("response frame is missing 'ok'")
        if payload.get("close"):
            self.server_closed = True
        if payload["ok"]:
            if "rows" in payload:
                return [tuple(row) for row in payload["rows"]]
            return payload["status"]
        exc_class = getattr(_errors, payload.get("error", ""), ServerError)
        if not (isinstance(exc_class, type) and issubclass(exc_class, BaseException)):
            exc_class = ServerError
        raise exc_class(payload.get("message", "server error"))

    def close(self) -> None:
        """Send the quit line and close the socket (rolls back the session)."""
        try:
            self._file.write(b"\\q\n")
            self._file.flush()
        except OSError:
            pass
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "SQLClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
