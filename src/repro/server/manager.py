"""The session multiplexer: admission control, shedding, exactly-once.

A :class:`SessionManager` owns the shared pieces every session needs —
the database, the :class:`~repro.server.locks.LockManager`, and the
engine mutex that serializes physical engine access. Like a PostgreSQL
backend, each statement runs on the thread that asked for it (the
connection's handler thread on the wire): there is no worker pool and
no queue between the caller and :meth:`Session.execute`.

Overload protection is layered, in order of engagement:

1. **Bounded sessions.** ``connect`` beyond ``max_sessions`` is refused
   with :class:`~repro.errors.ServerOverloadedError` — no unbounded
   session table.
2. **Shedding.** Once ``shed_threshold`` statements are in flight
   (admitted and not yet finished), read-only statements are answered
   from a lag-bounded standby via the pluggable ``shed_reader`` (the
   replication bridge wires this to ``ReplicaSet.client_read``) without
   entering the engine. Reads degrade gracefully before writes are
   touched.
3. **Backpressure.** A statement arriving with ``max_queue`` statements
   in flight is rejected immediately with ``ServerOverloadedError`` —
   clients back off and retry.

Per session, statements run one at a time under a per-session lock (a
session owns at most one open transaction); across sessions the callers'
threads interleave freely, which is what drives the lock manager and
MVCC paths concurrently. A lock wait therefore holds only its own
caller's thread, never a thread another session needs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable

from repro.engine.parse import Statement, leading_class, parse
from repro.engine.sql import Database
from repro.errors import (
    ReplicationError,
    ServerDrainingError,
    ServerOverloadedError,
    SessionClosedError,
    StatementTimeoutError,
)
from repro.obs import METRICS
from repro.server.locks import LockManager
from repro.server.session import Session
from repro.settings import SETTINGS, Settings

IN_FLIGHT = METRICS.gauge(
    "server_statements_in_flight", "Statements admitted and not yet finished."
)
ACTIVE_SESSIONS = METRICS.gauge(
    "server_sessions", "Currently connected sessions."
)
STATEMENTS = METRICS.counter(
    "server_statements_total", "Statements accepted for execution."
)
REJECTIONS = METRICS.counter(
    "server_overload_rejections_total",
    "Submissions refused with ServerOverloadedError.",
)
SHED_READS = METRICS.counter(
    "server_shed_reads_total",
    "Read-only statements shed to standby reads under overload.",
)
DEDUP_HITS = METRICS.counter(
    "server_dedup_hits_total",
    "Keyed statements answered from the idempotency dedup cache.",
)
DEDUP_ENTRIES = METRICS.gauge(
    "server_dedup_entries",
    "Completed entries currently held by the dedup cache.",
)
DRAIN_ABORTS = METRICS.counter(
    "server_drain_aborts_total",
    "Statements cleanly aborted because the drain grace period expired.",
)


class DedupCache:
    """Bounded LRU of idempotency key -> completed statement outcome.

    The server half of exactly-once autocommit writes: a client stamps a
    write with a unique key and may re-send it after losing the ack; the
    cache answers the duplicate with the recorded result instead of
    applying twice. Outcomes are ``("ok", result)`` for acknowledged
    statements and ``("indoubt", message)`` for commits whose quorum ack
    failed after the local apply — a retry of an in-doubt key re-raises
    :class:`~repro.errors.ReplicationError` rather than re-executing,
    because re-executing could double-apply a commit that survived.

    A key whose first attempt is still executing is *joined*: the retry
    waits on the original's :class:`PendingStatement` instead of racing it.
    The cache deliberately lives outside any session, so it survives
    reconnects and replica-set failovers for as long as the manager does.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.capacity = capacity if capacity is not None else SETTINGS.dedup_cache_size
        self._mu = threading.Lock()
        self._done: OrderedDict[str, tuple[str, Any]] = OrderedDict()
        self._inflight: dict[str, "PendingStatement"] = {}
        self.stats = {"hits": 0, "joined": 0, "recorded": 0, "evicted": 0}

    def begin(
        self, key: str, pending: "PendingStatement"
    ) -> "tuple[str, Any] | PendingStatement | None":
        """Reserve ``key`` for ``pending``; report duplicates.

        Returns the recorded outcome tuple for a completed key, the
        original :class:`PendingStatement` for an in-flight key, or
        ``None`` after reserving a fresh key.
        """
        with self._mu:
            outcome = self._done.get(key)
            if outcome is not None:
                self._done.move_to_end(key)
                self.stats["hits"] += 1
                DEDUP_HITS.inc()
                return outcome
            original = self._inflight.get(key)
            if original is not None:
                self.stats["joined"] += 1
                DEDUP_HITS.inc()
                return original
            self._inflight[key] = pending
            return None

    def finish(self, key: str, outcome: tuple[str, Any]) -> None:
        """Record a completed key's outcome (evicting LRU past capacity)."""
        with self._mu:
            self._inflight.pop(key, None)
            self._done[key] = outcome
            self._done.move_to_end(key)
            self.stats["recorded"] += 1
            while len(self._done) > self.capacity:
                self._done.popitem(last=False)
                self.stats["evicted"] += 1
            DEDUP_ENTRIES.set(len(self._done))

    def release(self, key: str) -> None:
        """Drop a reservation without recording (the statement never
        applied — a failed or rejected attempt is safe to re-execute)."""
        with self._mu:
            self._inflight.pop(key, None)

    def lookup(self, key: str) -> tuple[str, Any] | None:
        """The recorded outcome for ``key``, if completed (no LRU touch)."""
        with self._mu:
            return self._done.get(key)

    def __len__(self) -> int:
        with self._mu:
            return len(self._done)


class PendingStatement:
    """A keyed statement in flight: the record a joining retry waits on."""

    __slots__ = ("_event", "result", "error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None

    def _finish(self, result: Any = None, error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self._event.set()

    def wait(self) -> Any:
        """Block until the original finishes; return its rows or re-raise."""
        self._event.wait()
        if self.error is not None:
            raise self.error
        return self.result


class SessionManager:
    """Run each session's statements on its caller's thread, with bounded admission."""

    def __init__(
        self,
        db: Database,
        *,
        settings: Settings | None = None,
        locks: LockManager | None = None,
        shed_reader: Callable[[Statement], list | None] | None = None,
        dedup: DedupCache | None = None,
    ) -> None:
        self.db = db
        self.settings = settings if settings is not None else SETTINGS
        self.locks = locks if locks is not None else LockManager()
        self.engine_mutex = threading.RLock()
        self.shed_reader = shed_reader
        # The dedup cache may be handed in so it outlives this manager (a
        # drained-and-restarted server keeps its exactly-once memory).
        self.dedup = dedup if dedup is not None else DedupCache(
            self.settings.dedup_cache_size
        )
        self._mu = threading.Lock()
        self._idle = threading.Condition(self._mu)
        self._sessions: dict[str, Session] = {}
        #: Per-session lock: one statement at a time on each session.
        self._turns: dict[Session, threading.Lock] = {}
        self._in_flight = 0
        self._next_id = 0
        self._stopping = False
        self._draining = False
        self.stats = {"submitted": 0, "rejected": 0, "shed": 0, "executed": 0,
                      "dedup_hits": 0, "drain_aborts": 0}

    def _refusal(self) -> Exception:
        """The error for work the manager no longer takes."""
        if self._draining:
            return ServerDrainingError("server is draining")
        return SessionClosedError("server is shutting down")

    # -- connections -----------------------------------------------------------

    def connect(self, name: str | None = None) -> Session:
        """Admit a new session, or refuse with ServerOverloadedError."""
        with self._mu:
            if self._draining or self._stopping:
                raise self._refusal()
            if len(self._sessions) >= self.settings.max_sessions:
                REJECTIONS.inc()
                self.stats["rejected"] += 1
                raise ServerOverloadedError(
                    f"session table full ({self.settings.max_sessions})"
                )
            if name is None:
                self._next_id += 1
                name = f"session-{self._next_id}"
            if name in self._sessions:
                raise ServerOverloadedError(f"session name in use: {name}")
            session = Session(
                name,
                self.db,
                self.locks,
                engine_mutex=self.engine_mutex,
                settings=self.settings,
            )
            self._sessions[name] = session
            self._turns[session] = threading.Lock()
            ACTIVE_SESSIONS.set(len(self._sessions))
            return session

    def disconnect(self, session: Session) -> None:
        """Close a session: abort its transaction, drop its locks."""
        with self._mu:
            self._sessions.pop(session.name, None)
            self._turns.pop(session, None)
            ACTIVE_SESSIONS.set(len(self._sessions))
        session.close()

    # -- statements ------------------------------------------------------------

    def execute(
        self,
        session: Session,
        sql: str,
        *,
        key: str | None = None,
        statement_timeout: float | None = None,
    ) -> Any:
        """Run one statement on the calling thread; return rows or a status.

        ``key`` is a client idempotency key: a duplicate of a completed
        key is answered from the dedup cache (exactly-once), a duplicate
        of an in-flight key waits for the original's outcome.
        ``statement_timeout`` is the client's propagated deadline budget
        in seconds, counted from admission: it covers the wait for the
        session's turn *and* execution.

        Overload behaviour: read-only statements shed to the standby
        reader once ``shed_threshold`` statements are in flight; anything
        that cannot be shed is rejected with ServerOverloadedError once
        ``max_queue`` are.
        """
        if session.closed:
            raise SessionClosedError(f"session {session.name} is closed")
        deadline = (
            None if statement_timeout is None or statement_timeout <= 0
            else time.monotonic() + statement_timeout
        )
        if key is None:
            return self._run(session, sql, None, deadline)
        pending = PendingStatement()
        prior = self.dedup.begin(key, pending)
        if prior is not None:
            self.stats["dedup_hits"] += 1
            if isinstance(prior, PendingStatement):
                return prior.wait()
            kind, payload = prior
            if kind == "ok":
                return payload
            raise ReplicationError(
                f"statement with idempotency key {key!r} is in doubt: {payload}"
            )
        try:
            result = self._run(session, sql, key, deadline)
        except BaseException as exc:
            if isinstance(exc, ReplicationError):
                # The local apply happened but the quorum ack did not: the
                # commit is in doubt. Poison the key so a retry re-raises
                # instead of double-applying.
                self.dedup.finish(key, ("indoubt", str(exc)))
            else:
                # It never applied (refused, failed, aborted): a retry
                # with the same key is safe to re-execute.
                self.dedup.release(key)
            pending._finish(error=exc)
            raise
        self.dedup.finish(key, ("ok", result))
        pending._finish(result=result)
        return result

    def _admit(self, session: Session, sql: str | None) -> threading.Lock | None:
        """Count one statement in flight and return its session's turn.

        Returns ``None`` instead when ``sql`` (a sheddable read's text)
        should go to the standby reader. Raises when the manager refuses
        work or ``max_queue`` statements are already in flight.
        """
        with self._mu:
            if self._draining or self._stopping:
                raise self._refusal()
            turn = self._turns.get(session)
            if turn is None:
                raise SessionClosedError(f"session {session.name} is closed")
            if (
                sql is not None
                and self.shed_reader is not None
                and self._in_flight >= self.settings.shed_threshold
                and leading_class(sql) == "read"
                and not session.in_transaction
                and not session.state.failed
            ):
                return None
            if self._in_flight >= self.settings.max_queue:
                REJECTIONS.inc()
                self.stats["rejected"] += 1
                raise ServerOverloadedError(
                    f"too many statements in flight ({self.settings.max_queue})"
                )
            self._in_flight += 1
            self.stats["submitted"] += 1
            STATEMENTS.inc()
            IN_FLIGHT.set(self._in_flight)
            return turn

    def _run(
        self, session: Session, sql: str, key: str | None, deadline: float | None
    ) -> Any:
        statement: str | Statement = sql
        turn = self._admit(session, sql if key is None else None)
        if turn is None:
            # Answer the read from a standby on this thread. The parsed
            # statement is what runs if the reader declines it.
            assert self.shed_reader is not None
            statement = parse(sql)
            rows = self.shed_reader(statement)
            if rows is not None:
                with self._mu:
                    self.stats["shed"] += 1
                SHED_READS.inc()
                STATEMENTS.inc()
                return rows
            turn = self._admit(session, None)
        ran = False
        try:
            held = turn.acquire(
                timeout=-1 if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                if self._stopping:
                    raise self._refusal()
                remaining = None if deadline is None else deadline - time.monotonic()
                if not held or (remaining is not None and remaining <= 0):
                    raise StatementTimeoutError(
                        "canceling statement: deadline expired while "
                        "waiting for its session"
                    )
                ran = True
                return session.execute(statement, statement_timeout=remaining)
            finally:
                if held:
                    turn.release()
        finally:
            with self._mu:
                self._in_flight -= 1
                IN_FLIGHT.set(self._in_flight)
                if ran:
                    self.stats["executed"] += 1
                elif self._draining:
                    self.stats["drain_aborts"] += 1
                    DRAIN_ABORTS.inc()
                if not self._in_flight:
                    self._idle.notify_all()

    # -- lifecycle -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def _close_sessions(self, cutoff: float) -> int:
        """Close every session once its running statement ends (waiting
        no later than ``cutoff``); returns how many open blocks rolled back.
        """
        with self._mu:
            turns = self._turns
            self._turns = {}
            self._sessions.clear()
            ACTIVE_SESSIONS.set(0)
        rolled_back = 0
        for session, turn in turns.items():
            held = turn.acquire(timeout=max(0.0, cutoff - time.monotonic()))
            try:
                if session.in_transaction:
                    rolled_back += 1
                session.close()
            finally:
                if held:
                    turn.release()
        return rolled_back

    def drain(self, timeout: float | None = None) -> dict[str, int]:
        """Graceful stop: refuse new work, finish in-flight, abort the rest.

        Three phases, mirroring PostgreSQL's smart->fast shutdown ladder:

        1. **Refuse.** New connections and statements fail with the
           retryable :class:`~repro.errors.ServerDrainingError` — clients
           take it as "go elsewhere", not as a statement failure.
        2. **Grace.** Up to ``timeout`` (default ``SETTINGS.drain_timeout``)
           seconds for statements in flight to complete normally.
        3. **Abort.** A statement still waiting for its session's turn
           fails with ``ServerDrainingError`` when it gets it (its dedup
           reservation released — it never applied, so a retry elsewhere
           is safe), and sessions are closed, each after its running
           statement (waiting at most a second past the grace period),
           cleanly aborting any open transaction.

        Returns ``{"finished": n, "aborted": n}`` for the transcript.
        """
        if timeout is None:
            timeout = self.settings.drain_timeout
        cutoff = time.monotonic() + max(0.0, timeout) + 1.0
        executed_before = self.stats["executed"]
        aborts_before = self.stats["drain_aborts"]
        with self._mu:
            self._draining = True
            self._idle.wait_for(
                lambda: not self._in_flight, max(0.0, timeout)
            )
            self._stopping = True
        rolled_back = self._close_sessions(cutoff)
        DRAIN_ABORTS.inc(rolled_back)
        with self._mu:
            self.stats["drain_aborts"] += rolled_back
            return {
                "finished": self.stats["executed"] - executed_before,
                "aborted": self.stats["drain_aborts"] - aborts_before,
            }

    def stop(self) -> None:
        """Drain nothing: refuse new work, fail waiting statements, close
        sessions (each after its running statement, for up to 5 s)."""
        with self._mu:
            self._stopping = True
        self._close_sessions(time.monotonic() + 5.0)

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
