"""The session multiplexer: worker pool, admission control, shedding.

A :class:`SessionManager` owns the shared pieces every session needs —
the database, the :class:`~repro.server.locks.LockManager`, and the
engine mutex that serializes physical engine access — and multiplexes a
fixed pool of worker threads over the connected sessions' statements.

Overload protection is layered, in order of engagement:

1. **Bounded sessions.** ``connect`` beyond ``max_sessions`` is refused
   with :class:`~repro.errors.ServerOverloadedError` — no unbounded
   session table.
2. **Shedding.** Once the statement queue is ``shed_threshold`` deep,
   read-only statements are answered from a lag-bounded standby via the
   pluggable ``shed_reader`` (the replication bridge wires this to
   ``ReplicaSet.client_read``) in the submitting thread, bypassing the
   queue entirely. Reads degrade gracefully before writes are touched.
3. **Backpressure.** A submission to a full queue (``max_queue``) is
   rejected immediately with ``ServerOverloadedError`` — clients back
   off and retry; the server never queues unboundedly.

Per session, statements run one at a time in submission order (a session
owns at most one open transaction, so out-of-order execution would be
nonsense); across sessions the workers interleave freely, which is what
drives the lock manager and MVCC paths concurrently.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
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

QUEUE_DEPTH = METRICS.gauge(
    "server_queue_depth", "Statements waiting in the admission queue."
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
    shares the original's :class:`PendingStatement` instead of racing it.
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
    """A submitted statement's future: wait() for rows or a raised error."""

    __slots__ = ("session", "sql", "statement", "_event", "result", "error",
                 "shed", "key", "deadline")

    def __init__(
        self,
        session: Session,
        sql: str,
        key: str | None = None,
        deadline: float | None = None,
    ) -> None:
        self.session = session
        self.sql = sql
        #: The parsed form, once the shed path has parsed ``sql``.
        self.statement: Statement | None = None
        self._event = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        self.shed = False
        self.key = key
        self.deadline = deadline

    def _finish(self, result: Any = None, error: BaseException | None = None) -> None:
        self.result = result
        self.error = error
        self._event.set()

    def done(self) -> bool:
        """True once the statement has a result or an error."""
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> Any:
        """Block until executed; return the rows or re-raise the error."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"statement still pending: {self.sql!r}")
        if self.error is not None:
            raise self.error
        return self.result


class SessionManager:
    """Multiplex a worker pool over sessions with bounded admission."""

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
        self._work = threading.Condition(self._mu)
        self._queue: deque[PendingStatement] = deque()
        self._busy: set[Session] = set()
        self._sessions: dict[str, Session] = {}
        self._next_id = 0
        self._stopping = False
        self._draining = False
        self.stats = {"submitted": 0, "rejected": 0, "shed": 0, "executed": 0,
                      "dedup_hits": 0, "drain_aborts": 0}
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(max(1, self.settings.worker_threads))
        ]
        for thread in self._workers:
            thread.start()

    # -- connections -----------------------------------------------------------

    def connect(self, name: str | None = None) -> Session:
        """Admit a new session, or refuse with ServerOverloadedError."""
        with self._mu:
            if self._draining:
                raise ServerDrainingError("server is draining")
            if self._stopping:
                raise SessionClosedError("server is shutting down")
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
            ACTIVE_SESSIONS.set(len(self._sessions))
            return session

    def disconnect(self, session: Session) -> None:
        """Close a session: abort its transaction, drop its locks."""
        with self._mu:
            self._sessions.pop(session.name, None)
            ACTIVE_SESSIONS.set(len(self._sessions))
        session.close()

    # -- statement admission ---------------------------------------------------

    def submit(
        self,
        session: Session,
        sql: str,
        *,
        key: str | None = None,
        statement_timeout: float | None = None,
    ) -> PendingStatement:
        """Queue one statement; returns a future. Never blocks.

        ``key`` is a client idempotency key: a duplicate of a completed
        key is answered from the dedup cache (exactly-once), a duplicate
        of an in-flight key joins the original's future. ``statement_timeout``
        is the client's propagated deadline budget in seconds — it covers
        queue wait *and* execution, so a statement that expires while
        queued fails without ever entering the engine.

        Overload behaviour: read-only statements shed to the standby
        reader once the queue passes ``shed_threshold``; anything that
        cannot be shed is rejected with ServerOverloadedError when the
        queue is full.
        """
        if session.closed:
            raise SessionClosedError(f"session {session.name} is closed")
        deadline = (
            None if statement_timeout is None or statement_timeout <= 0
            else time.monotonic() + statement_timeout
        )
        pending = PendingStatement(session, sql, key=key, deadline=deadline)
        if key is not None:
            prior = self.dedup.begin(key, pending)
            if isinstance(prior, PendingStatement):
                self.stats["dedup_hits"] += 1
                return prior
            if prior is not None:
                self.stats["dedup_hits"] += 1
                kind, payload = prior
                if kind == "ok":
                    pending._finish(result=payload)
                else:
                    pending._finish(error=ReplicationError(
                        f"statement with idempotency key {key!r} is in doubt: "
                        f"{payload}"
                    ))
                return pending
        try:
            with self._mu:
                if self._draining:
                    raise ServerDrainingError("server is draining")
                if self._stopping:
                    raise SessionClosedError("server is shutting down")
                depth = len(self._queue)
                shed = (
                    self.shed_reader is not None
                    and depth >= self.settings.shed_threshold
                    and key is None
                    and leading_class(sql) == "read"
                    and not session.in_transaction
                    and not session.state.failed
                )
                if not shed:
                    if depth >= self.settings.max_queue:
                        REJECTIONS.inc()
                        self.stats["rejected"] += 1
                        raise ServerOverloadedError(
                            f"statement queue full ({self.settings.max_queue})"
                        )
                    self._queue.append(pending)
                    self.stats["submitted"] += 1
                    STATEMENTS.inc()
                    QUEUE_DEPTH.set(len(self._queue))
                    self._work.notify()
        except Exception:
            # A rejected keyed statement never ran: drop the reservation
            # so a backed-off retry re-executes instead of joining a
            # future nobody will ever finish.
            if key is not None:
                self.dedup.release(key)
            raise
        if shed:
            self._shed(pending)
        return pending

    def execute(
        self,
        session: Session,
        sql: str,
        timeout: float | None = None,
        *,
        key: str | None = None,
        statement_timeout: float | None = None,
    ) -> Any:
        """Submit and wait: the synchronous convenience path."""
        pending = self.submit(
            session, sql, key=key, statement_timeout=statement_timeout
        )
        return pending.wait(timeout)

    def _shed(self, pending: PendingStatement) -> None:
        """Answer a read from a standby in the submitting thread.

        The text is parsed here, and the parsed statement is what runs if
        the reader declines it (not the replicated table's shape) and it
        falls back to normal admission.
        """
        assert self.shed_reader is not None
        try:
            pending.statement = parse(pending.sql)
            rows = self.shed_reader(pending.statement)
        except Exception as exc:
            pending._finish(error=exc)
            return
        if rows is None:
            # Not sheddable after all: one more chance through the queue.
            with self._mu:
                if len(self._queue) >= self.settings.max_queue:
                    REJECTIONS.inc()
                    self.stats["rejected"] += 1
                    pending._finish(
                        error=ServerOverloadedError(
                            f"statement queue full ({self.settings.max_queue})"
                        )
                    )
                    return
                self._queue.append(pending)
                self.stats["submitted"] += 1
                STATEMENTS.inc()
                QUEUE_DEPTH.set(len(self._queue))
                self._work.notify()
            return
        pending.shed = True
        with self._mu:
            self.stats["shed"] += 1
        SHED_READS.inc()
        STATEMENTS.inc()
        pending._finish(result=rows)

    # -- workers ---------------------------------------------------------------

    def _take(self) -> PendingStatement | None:
        """Pop the first queued statement whose session is idle."""
        with self._work:
            while True:
                if self._stopping:
                    return None
                for idx, pending in enumerate(self._queue):
                    if pending.session not in self._busy:
                        del self._queue[idx]
                        self._busy.add(pending.session)
                        QUEUE_DEPTH.set(len(self._queue))
                        return pending
                self._work.wait()

    def _worker_loop(self) -> None:
        while True:
            pending = self._take()
            if pending is None:
                return
            try:
                remaining = None
                if pending.deadline is not None:
                    remaining = pending.deadline - time.monotonic()
                    if remaining <= 0:
                        raise StatementTimeoutError(
                            "canceling statement: deadline expired while queued"
                        )
                statement = pending.statement
                result = pending.session.execute(
                    pending.sql if statement is None else statement,
                    statement_timeout=remaining,
                )
            except BaseException as exc:  # noqa: BLE001 - future carries it
                if pending.key is not None:
                    if isinstance(exc, ReplicationError):
                        # The local apply happened but the quorum ack did
                        # not: the commit is in doubt. Poison the key so a
                        # retry re-raises instead of double-applying.
                        self.dedup.finish(pending.key, ("indoubt", str(exc)))
                    else:
                        self.dedup.release(pending.key)
                pending._finish(error=exc)
            else:
                if pending.key is not None:
                    self.dedup.finish(pending.key, ("ok", result))
                pending._finish(result=result)
            finally:
                with self._work:
                    self._busy.discard(pending.session)
                    self.stats["executed"] += 1
                    self._work.notify_all()

    # -- lifecycle -------------------------------------------------------------

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float | None = None) -> dict[str, int]:
        """Graceful stop: refuse new work, finish in-flight, abort the rest.

        Three phases, mirroring PostgreSQL's smart->fast shutdown ladder:

        1. **Refuse.** New connections and submissions fail with the
           retryable :class:`~repro.errors.ServerDrainingError` — clients
           take it as "go elsewhere", not as a statement failure.
        2. **Grace.** Up to ``timeout`` (default ``SETTINGS.drain_timeout``)
           seconds for queued and executing statements to complete
           normally.
        3. **Abort.** Statements still queued are failed with
           ``ServerDrainingError`` (their dedup reservations released —
           they never applied, so a retry elsewhere is safe), sessions
           are closed (cleanly aborting any open transaction), and the
           worker pool is joined.

        Returns ``{"finished": n, "aborted": n}`` for the transcript.
        """
        if timeout is None:
            timeout = self.settings.drain_timeout
        deadline = time.monotonic() + max(0.0, timeout)
        executed_before = self.stats["executed"]
        with self._work:
            self._draining = True
        while time.monotonic() < deadline:
            with self._mu:
                if not self._queue and not self._busy:
                    break
            time.sleep(0.002)
        aborted = 0
        with self._work:
            self._stopping = True
            queued = list(self._queue)
            self._queue.clear()
            QUEUE_DEPTH.set(0)
            self._work.notify_all()
        for pending in queued:
            if pending.key is not None:
                self.dedup.release(pending.key)
            pending._finish(error=ServerDrainingError(
                "statement aborted: server drained before it could run"
            ))
            aborted += 1
            DRAIN_ABORTS.inc()
        for thread in self._workers:
            thread.join(timeout=max(0.1, deadline - time.monotonic() + 1.0))
        with self._mu:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            ACTIVE_SESSIONS.set(0)
        for session in sessions:
            if session.in_transaction:
                aborted += 1
                DRAIN_ABORTS.inc()
            session.close()
        self.stats["drain_aborts"] += aborted
        return {
            "finished": self.stats["executed"] - executed_before,
            "aborted": aborted,
        }

    def stop(self) -> None:
        """Drain nothing: fail queued statements, close sessions, join."""
        with self._work:
            self._stopping = True
            queued = list(self._queue)
            self._queue.clear()
            QUEUE_DEPTH.set(0)
            self._work.notify_all()
        for pending in queued:
            if pending.key is not None:
                self.dedup.release(pending.key)
            pending._finish(error=SessionClosedError("server stopped"))
        for thread in self._workers:
            thread.join(timeout=5.0)
        with self._mu:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            ACTIVE_SESSIONS.set(0)
        for session in sessions:
            session.close()

    def __enter__(self) -> "SessionManager":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
