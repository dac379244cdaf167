""":class:`ResilientClient`: pooled, retrying, exactly-once SQL driver.

What composes here:

- **Endpoint discovery.** ``discover()`` is re-resolved on every attempt,
  so when the replica set promotes a standby (or the chaos harness
  restarts the server on a new port) the very next retry dials the new
  primary instead of hammering the corpse of the old one. Each endpoint
  gets its own pool and circuit breaker.
- **Deadline propagation.** Every call runs under one absolute deadline
  (``client_op_timeout`` by default). The *remaining* budget rides along
  on each wire request and becomes the server-side statement deadline —
  so time spent dialing, queueing, and backing off all counts, and a
  statement that would outlive its caller is cancelled server-side
  rather than abandoned client-side.
- **Exactly-once autocommit writes.** Retrying a write whose ack was
  lost is the classic double-apply hazard. The driver stamps every
  autocommit INSERT/UPDATE/DELETE with a fresh idempotency key; the
  server's dedup cache replays the recorded result for a re-sent key
  instead of re-executing. Reads and unambiguous rejections retry
  freely without keys.
- **Whole-transaction replay.** Inside ``run_transaction`` a transient
  failure *before* COMMIT is sent rolls the block back and replays the
  caller's function from the top (never a single statement in
  isolation). A connection lost *while committing* triggers commit
  recovery: the COMMIT itself carried a key, so probing it on a fresh
  session either returns the recorded outcome (committed — done) or
  fails with "no transaction in progress" (rolled back — replay safely).
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from typing import Any, Callable, Iterable

from repro.client.breaker import CircuitBreaker
from repro.client.pool import ConnectionPool, PooledConnection
from repro.client.retry import RetryPolicy, remaining
from repro.engine.parse import leading_class
from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    PoolTimeoutError,
    ReplicationError,
    ReproError,
    RetriesExceededError,
    SQLError,
    TxnError,
)
from repro.obs import METRICS
from repro.settings import SETTINGS

CLIENT_RETRIES = METRICS.counter(
    "client_retries_total",
    "Statement/transaction attempts retried, by triggering error class.",
    labels=("error",),
)
CLIENT_TXN_REPLAYS = METRICS.counter(
    "client_txn_replays_total",
    "Whole-transaction replays after a transient mid-block failure.",
)
CLIENT_COMMIT_RECOVERIES = METRICS.counter(
    "client_commit_recoveries_total",
    "Commit-recovery probes resolved, by verdict.",
    labels=("verdict",),
)

Endpoint = tuple[str, int]


class _Replay(Exception):
    """Internal control flow: this transaction attempt failed in a way
    that provably left nothing committed — roll up and replay the block.
    ``cause`` carries the underlying typed error for accounting."""

    def __init__(self, cause: BaseException) -> None:
        super().__init__(str(cause))
        self.cause = cause


class _Attempt:
    """One dial-and-execute attempt's resources (endpoint, breaker, conn)."""

    __slots__ = ("endpoint", "breaker", "pool", "conn")

    def __init__(self, endpoint: Endpoint, breaker: CircuitBreaker,
                 pool: ConnectionPool, conn: PooledConnection) -> None:
        self.endpoint = endpoint
        self.breaker = breaker
        self.pool = pool
        self.conn = conn


class Transaction:
    """The handle ``run_transaction`` passes to the caller's function.

    Statements run on the pinned connection with the operation deadline
    propagated; transient failures propagate out so the driver can roll
    back and replay the *whole* function — never one statement alone.
    """

    def __init__(self, attempt: _Attempt, deadline: float | None) -> None:
        self._attempt = attempt
        self._deadline = deadline

    def execute(self, sql: str) -> Any:
        """Run one statement inside the block, under the block's deadline."""
        return self._attempt.conn.execute(sql, timeout=remaining(self._deadline))


class ResilientClient:
    """Fault-tolerant front door over one or more SQL server endpoints."""

    def __init__(
        self,
        endpoints: Iterable[Endpoint] | None = None,
        *,
        discover: Callable[[], list[Endpoint]] | None = None,
        policy: RetryPolicy | None = None,
        op_timeout: float | None = None,
        pool_size: int | None = None,
        acquire_timeout: float | None = None,
        connect_timeout: float | None = None,
        breaker_failure_threshold: int | None = None,
        breaker_reset_timeout: float | None = None,
        key_factory: Callable[[], str] | None = None,
    ) -> None:
        if discover is None:
            if endpoints is None:
                raise ValueError("need endpoints or a discover callable")
            static = [tuple(ep) for ep in endpoints]
            discover = lambda: static  # noqa: E731
        self._discover = discover
        self.policy = policy if policy is not None else RetryPolicy()
        self.op_timeout = (
            op_timeout if op_timeout is not None else SETTINGS.client_op_timeout)
        self._pool_size = pool_size
        self._acquire_timeout = acquire_timeout
        self._connect_timeout = connect_timeout
        self._breaker_threshold = breaker_failure_threshold
        self._breaker_reset = breaker_reset_timeout
        if key_factory is None:
            prefix = uuid.uuid4().hex[:12]
            counter = itertools.count()
            key_factory = lambda: f"{prefix}-{next(counter)}"  # noqa: E731
        self._next_key = key_factory
        self._mu = threading.Lock()
        self._pools: dict[Endpoint, ConnectionPool] = {}
        self._breakers: dict[Endpoint, CircuitBreaker] = {}
        self._closed = False

    # -- endpoint plumbing -----------------------------------------------------

    def _pool_for(self, endpoint: Endpoint) -> ConnectionPool:
        with self._mu:
            pool = self._pools.get(endpoint)
            if pool is None:
                pool = ConnectionPool(
                    endpoint,
                    size=self._pool_size,
                    acquire_timeout=self._acquire_timeout,
                    connect_timeout=self._connect_timeout,
                )
                self._pools[endpoint] = pool
            return pool

    def _breaker_for(self, endpoint: Endpoint) -> CircuitBreaker:
        with self._mu:
            breaker = self._breakers.get(endpoint)
            if breaker is None:
                breaker = CircuitBreaker(
                    f"{endpoint[0]}:{endpoint[1]}",
                    failure_threshold=self._breaker_threshold,
                    reset_timeout=self._breaker_reset,
                )
                self._breakers[endpoint] = breaker
            return breaker

    def _open_attempt(self, deadline: float | None) -> _Attempt:
        """Discover endpoints, pass a breaker, dial/reuse a connection.

        Failures here mean the statement was never sent, so the caller
        may always retry them. Raises the last per-endpoint error when
        every endpoint is unusable this round.
        """
        endpoints = list(self._discover())
        if not endpoints:
            raise ConnectionLostError("endpoint discovery returned no endpoints")
        last_error: ReproError | None = None
        for endpoint in endpoints:
            breaker = self._breaker_for(endpoint)
            try:
                breaker.acquire()
            except CircuitOpenError as exc:
                last_error = exc
                continue
            pool = self._pool_for(endpoint)
            budget = remaining(deadline)
            try:
                conn = pool.acquire(timeout=budget)
            except PoolTimeoutError as exc:
                # Pool exhaustion is load, not endpoint death: don't
                # charge the breaker for it.
                last_error = exc
                continue
            except OSError as exc:
                breaker.record_failure()
                last_error = ConnectionLostError(
                    f"dial {endpoint[0]}:{endpoint[1]} failed: {exc}")
                continue
            return _Attempt(endpoint, breaker, pool, conn)
        assert last_error is not None
        raise last_error

    # -- autocommit statements -------------------------------------------------

    def execute(
        self,
        sql: str,
        *,
        key: str | None = None,
        timeout: float | None = None,
    ) -> Any:
        """Run one autocommit statement with retries and exactly-once writes.

        Writes are stamped with an idempotency key automatically (pass
        ``key`` to control it, e.g. to make a retry across *client*
        restarts dedup too). Raises the original typed error when it is
        not retryable, :class:`RetriesExceededError` when the budget runs
        out.
        """
        if self._closed:
            raise PoolTimeoutError("client is closed")
        leading = leading_class(sql)
        if key is None and leading == "write":
            key = self._next_key()
        # Ambiguous connection losses may only be retried when a re-send
        # cannot double-apply: keyed statements (dedup absorbs them) and
        # autocommit reads (re-running a SELECT/EXPLAIN is always safe).
        replay_safe = key is not None or leading == "read"
        budget = self.op_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget if budget else None
        last_error: BaseException | None = None
        for attempt_no in itertools.count():
            try:
                remaining(deadline)
                attempt = self._open_attempt(deadline)
            except (ReproError, OSError) as exc:
                if isinstance(exc, RetriesExceededError):
                    raise RetriesExceededError(
                        f"deadline expired after {attempt_no} attempts: "
                        f"{last_error or exc}", last_error or exc) from None
                last_error = exc
            else:
                try:
                    result = attempt.conn.execute(
                        sql, key=key, timeout=remaining(deadline))
                except ReproError as exc:
                    last_error = exc
                    lost = isinstance(exc, ConnectionLostError)
                    if lost:
                        attempt.breaker.record_failure()
                    else:
                        attempt.breaker.record_success()
                    attempt.pool.release(attempt.conn, discard=lost)
                    if not self.policy.classify(exc, keyed=replay_safe):
                        raise
                else:
                    attempt.breaker.record_success()
                    attempt.pool.release(attempt.conn)
                    return result
            if self.policy.give_up(attempt_no, deadline):
                raise RetriesExceededError(
                    f"gave up after {attempt_no + 1} attempts: {last_error}",
                    last_error,
                )
            CLIENT_RETRIES.labels(type(last_error).__name__).inc()
            self.policy.sleep(attempt_no, deadline)

    # -- transactions ----------------------------------------------------------

    def run_transaction(
        self,
        fn: Callable[[Transaction], Any],
        *,
        timeout: float | None = None,
    ) -> Any:
        """Run ``fn(txn)`` atomically, replaying the whole block on
        transient failure and recovering in-flight commits exactly once.

        ``fn`` must be a pure function of its inputs and the database (it
        may run several times); it receives a :class:`Transaction` whose
        ``execute`` runs statements inside the block.
        """
        if self._closed:
            raise PoolTimeoutError("client is closed")
        budget = self.op_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget if budget else None
        last_error: BaseException | None = None
        for attempt_no in itertools.count():
            try:
                remaining(deadline)
                attempt = self._open_attempt(deadline)
            except (ReproError, OSError) as exc:
                if isinstance(exc, RetriesExceededError):
                    raise RetriesExceededError(
                        f"deadline expired after {attempt_no} replays: "
                        f"{last_error or exc}", last_error or exc) from None
                last_error = exc
            else:
                commit_key = self._next_key()
                try:
                    return self._try_transaction(
                        attempt, fn, commit_key, deadline)
                except _Replay as replay:
                    last_error = replay.cause
                    CLIENT_TXN_REPLAYS.inc()
            if self.policy.give_up(attempt_no, deadline):
                raise RetriesExceededError(
                    f"transaction gave up after {attempt_no + 1} attempts: "
                    f"{last_error}", last_error)
            CLIENT_RETRIES.labels(type(last_error).__name__).inc()
            self.policy.sleep(attempt_no, deadline)

    def _try_transaction(
        self,
        attempt: _Attempt,
        fn: Callable[[Transaction], Any],
        commit_key: str,
        deadline: float | None,
    ) -> Any:
        """One BEGIN..fn..COMMIT attempt on a pinned connection.

        Failures *before* COMMIT is sent provably left nothing committed
        (the server rolls the block back on error or disconnect), so
        they raise :class:`_Replay`. A connection lost while COMMIT is
        in flight goes to :meth:`_recover_commit` — replaying there
        without probing could double-apply. And a COMMIT that *returns*
        must carry the ``COMMIT`` status tag: an epoch-fenced or aborted
        block answers COMMIT with ``ROLLBACK`` (PostgreSQL semantics —
        the statement succeeds, the block rolls back), which an
        acknowledgement-hungry driver must read as "replay", never as
        "committed".
        """
        conn, pool, breaker = attempt.conn, attempt.pool, attempt.breaker
        try:
            conn.execute("BEGIN", timeout=remaining(deadline))
            result = fn(Transaction(attempt, deadline))
        except ConnectionLostError as exc:
            # The block died with the connection: rolled back server-side.
            breaker.record_failure()
            pool.release(conn, discard=True)
            raise _Replay(exc) from None
        except TxnError as exc:
            # Deadlock victim, serialization failure, fenced/aborted
            # block: the server rolled (or will roll) the block back.
            self._rollback(attempt)
            raise _Replay(exc) from None
        except ReproError as exc:
            self._rollback(attempt)
            if self.policy.classify(exc, keyed=True):
                raise _Replay(exc) from None
            raise
        except BaseException:
            # The caller's own exception: leave the block cleanly.
            self._rollback(attempt)
            raise
        try:
            status = conn.execute(
                "COMMIT", key=commit_key, timeout=remaining(deadline))
        except ConnectionLostError as exc:
            breaker.record_failure()
            pool.release(conn, discard=True)
            if self._recover_commit(commit_key, deadline) == "committed":
                return result
            raise _Replay(exc) from None
        except ReproError as exc:
            # e.g. ServerDrainingError (refused before running) or
            # ReplicationError (in-doubt: never replayed, surfaces).
            pool.release(conn, discard=conn.client.server_closed)
            if self.policy.classify(exc, keyed=True):
                raise _Replay(exc) from None
            raise
        if status != "COMMIT":
            # The server answered the COMMIT statement with a ROLLBACK
            # tag: the block was aborted (epoch fence after failover, or
            # an earlier failed statement). Nothing committed.
            breaker.record_success()
            pool.release(conn)
            raise _Replay(TxnError(
                f"transaction block rolled back by server (status {status!r})"
            )) from None
        breaker.record_success()
        pool.release(conn)
        return result

    def _rollback(self, attempt: _Attempt) -> None:
        """Best-effort ROLLBACK; discard the connection if it broke."""
        try:
            attempt.conn.execute("ROLLBACK")
        except SQLError:
            # "no transaction in progress": already rolled back.
            attempt.pool.release(attempt.conn)
        except (ReproError, OSError):
            attempt.pool.release(attempt.conn, discard=True)
        else:
            attempt.pool.release(attempt.conn)

    def _recover_commit(self, commit_key: str, deadline: float | None) -> str:
        """Resolve an in-flight COMMIT whose ack was lost.

        Re-sends the *keyed* COMMIT on a fresh session. Three outcomes:

        - the dedup cache replays the recorded result → ``"committed"``;
        - the fresh session has no transaction open and the key was never
          recorded → ``SQLError`` ("no transaction in progress") → the
          block rolled back with the old connection → ``"rolled_back"``;
        - :class:`ReplicationError` → the key was poisoned in-doubt
          (commit locally durable, quorum unreachable) → propagate; the
          caller must not assume either way.

        Connection losses during the probe itself just re-probe until
        the deadline.
        """
        for probe_no in itertools.count():
            remaining(deadline)
            if deadline is None and probe_no > self.policy.max_retries:
                raise RetriesExceededError(
                    f"commit outcome unknown for key {commit_key!r}: "
                    "probe budget exhausted")
            try:
                attempt = self._open_attempt(deadline)
            except (ReproError, OSError):
                self.policy.sleep(probe_no, deadline)
                continue
            try:
                status = attempt.conn.execute(
                    "COMMIT", key=commit_key, timeout=remaining(deadline))
            except SQLError:
                attempt.pool.release(attempt.conn)
                CLIENT_COMMIT_RECOVERIES.labels("rolled_back").inc()
                return "rolled_back"
            except ConnectionLostError:
                attempt.breaker.record_failure()
                attempt.pool.release(attempt.conn, discard=True)
                self.policy.sleep(probe_no, deadline)
            except ReplicationError:
                attempt.pool.release(attempt.conn)
                CLIENT_COMMIT_RECOVERIES.labels("in_doubt").inc()
                raise
            except ReproError:
                attempt.pool.release(attempt.conn)
                self.policy.sleep(probe_no, deadline)
            else:
                attempt.pool.release(attempt.conn)
                if status != "COMMIT":
                    # The recorded outcome was a fenced/aborted block's
                    # ROLLBACK tag: the original commit never happened.
                    CLIENT_COMMIT_RECOVERIES.labels("rolled_back").inc()
                    return "rolled_back"
                CLIENT_COMMIT_RECOVERIES.labels("committed").inc()
                return "committed"

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close every pool and refuse further calls."""
        with self._mu:
            self._closed = True
            pools = list(self._pools.values())
        for pool in pools:
            pool.close()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
