"""One client connection: a session owning at most one open transaction.

A :class:`Session` wraps the engine's per-session
:class:`~repro.engine.sql.SessionState` with the server-side concerns the
engine deliberately knows nothing about:

- **Two-phase locking.** The session parses each statement once and,
  before it enters the engine, takes the table lock its kind implies
  (SHARED for reads, ROW for DML, EXCLUSIVE for VACUUM/DDL). During DML the engine calls
  back (``row_locker``) for every tuple it is about to claim; the hook
  try-acquires the TID lock and, when it would block, unwinds the
  statement with :class:`~repro.engine.sql.WouldBlock` so the session can
  wait *outside* the engine mutex and retry. All locks are held to
  transaction end (strict 2PL).
- **Deadlines.** Each statement gets an absolute deadline
  (``statement_timeout``) enforced at every lock wait and — via the
  ``deadline_check`` hook — cooperatively inside long scans. Lock waits
  are additionally bounded by ``lock_timeout``. Both surface as typed,
  transaction-aborting errors.
- **Clean abort.** Deadlock/timeout errors abort the open transaction
  exactly like an engine error would: an explicit block enters the
  aborted state ("current transaction is aborted ...") until
  COMMIT/ROLLBACK, and every lock the transaction held is released so
  the rest of the system makes progress.

Sessions are single-threaded by contract: one statement at a time (the
:class:`~repro.server.manager.SessionManager` runs each session's
statements under a per-session lock, on the caller's thread). The engine
mutex serializes *physical* engine access across sessions; the lock
manager provides the *logical* interleaving on top.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any

from repro.engine.parse import Statement, parse
from repro.engine.sql import Database, SessionState, WouldBlock
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    SessionClosedError,
    SQLError,
    StatementTimeoutError,
)
from repro.server.locks import LockManager, LockMode, LockOwner, row_key, table_key
from repro.settings import SETTINGS, Settings

#: Transaction birth stamps for deadlock victim selection (younger = higher).
_BIRTHS = itertools.count(1)

#: The table lock each statement kind takes; kinds absent lock nothing
#: (transaction control, FETCH/CLOSE, the virtual tables).
_LOCK_MODES = {
    **dict.fromkeys(("select", "analyze", "check_index"), LockMode.SHARED),
    **dict.fromkeys(("insert", "update", "delete"), LockMode.ROW),
    **dict.fromkeys(
        ("vacuum", "create_table", "drop_table", "create_index",
         "drop_index", "repack_index"),
        LockMode.EXCLUSIVE,
    ),
}


def table_locks(
    statement: Statement, db: Database | None = None
) -> list[tuple[tuple, LockMode]]:
    """The table locks a statement implies, before the engine sees it.

    EXPLAIN and DECLARE lock through their inner SELECT; strict 2PL holds
    a DECLARE's SHARED lock to transaction end, so in-block FETCHes stream
    safely. ``db`` resolves CHECK/REPACK INDEX to the owning table;
    without it, or for an unknown index, they lock nothing and the engine
    reports the error.
    """
    if statement.inner is not None:
        statement = statement.inner
    mode = _LOCK_MODES.get(statement.kind)
    if mode is None:
        return []
    table = statement.table
    if table is None:
        if db is None:
            return []
        try:
            table = db.find_index(statement.index)[0].name
        except SQLError:
            return []
    return [(table_key(table), mode)]


class Session:
    """One connection's execution context over a shared database."""

    def __init__(
        self,
        name: str,
        db: Database,
        locks: LockManager,
        engine_mutex: threading.RLock | None = None,
        settings: Settings | None = None,
    ) -> None:
        self.name = name
        self.db = db
        self.locks = locks
        self.engine_mutex = engine_mutex if engine_mutex is not None else threading.RLock()
        self.settings = settings
        self.state = SessionState()
        self.closed = False
        self.statements = 0
        self.retries = 0
        self._owner: LockOwner | None = None

    # -- settings resolution (None -> SETTINGS at call time) ------------------

    def _setting(self, name: str, override: float | None) -> float | None:
        if override is not None:
            value = override
        else:
            source = self.settings if self.settings is not None else SETTINGS
            value = getattr(source, name)
        return None if value is None or value <= 0 else value

    # -- transaction-scope lock ownership -------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self.state.current is not None

    @property
    def owner(self) -> LockOwner:
        """The lock identity of the current transaction scope (lazy)."""
        if self._owner is None:
            self._owner = LockOwner(self.name, next(_BIRTHS))
        return self._owner

    def _end_scope_if_over(self) -> None:
        """Release all locks once no engine transaction remains open.

        True both after an autocommit statement and after a block ends
        (COMMIT/ROLLBACK/abort): strict 2PL releases at transaction end.
        """
        if self.state.current is None and self._owner is not None:
            self.locks.release_all(self._owner)
            self._owner = None

    def _abort_open_txn(self) -> None:
        """Abort the open transaction after a lock-layer error.

        Mirrors the engine's own error path: the block enters the aborted
        state until COMMIT/ROLLBACK; the engine transaction is rolled
        back immediately so its locks and snapshot stop blocking others.
        """
        with self.engine_mutex:
            if self.state.current is not None:
                txn = self.state.fail_block()
                if txn.is_open:
                    self.db.txn.abort(txn)

    # -- statement execution ---------------------------------------------------

    def execute(
        self,
        sql: str | Statement,
        *,
        statement_timeout: float | None = None,
        lock_timeout: float | None = None,
    ) -> Any:
        """Run one statement with 2PL, deadlines, and clean abort.

        Raises the engine's own errors unchanged, plus
        :class:`DeadlockError` / :class:`LockTimeoutError` /
        :class:`StatementTimeoutError` from the locking layer — all of
        which leave the session in the same state an engine error would
        (autocommit: transaction gone; block: aborted until rollback).
        Text is parsed here, once; text that does not parse takes no locks
        and goes on to the engine, whose error path aborts an open block.
        """
        if self.closed:
            raise SessionClosedError(f"session {self.name} is closed")
        self.statements += 1

        st_timeout = self._setting("statement_timeout", statement_timeout)
        lk_timeout = self._setting("lock_timeout", lock_timeout)
        deadline = None if st_timeout is None else time.monotonic() + st_timeout

        statement: str | Statement = sql
        if isinstance(sql, str):
            try:
                statement = parse(sql)
            except SQLError:
                pass
        # A statement in a failed block takes no locks: the engine
        # rejects it (TxnAbortedError) or ends the block (COMMIT/ROLLBACK).
        locks = []
        if isinstance(statement, Statement) and not self.state.failed:
            locks = table_locks(statement, self.db)

        try:
            for key, mode in locks:
                self.locks.acquire(
                    self.owner,
                    key,
                    mode,
                    lock_timeout=lk_timeout,
                    deadline=deadline,
                )
            return self._run_with_row_locks(statement, lk_timeout, deadline)
        except (DeadlockError, LockTimeoutError, StatementTimeoutError):
            self._abort_open_txn()
            raise
        finally:
            self._end_scope_if_over()

    def _run_with_row_locks(
        self,
        statement: str | Statement,
        lk_timeout: float | None,
        deadline: float | None,
    ) -> Any:
        """The engine-side retry loop: execute, wait on TID locks, retry."""
        owner = self.owner

        def row_locker(table: str, tid: Any) -> None:
            key = row_key(table, tid)
            if not self.locks.try_acquire(owner, key, LockMode.EXCLUSIVE):
                raise WouldBlock(key)

        def deadline_check() -> None:
            if deadline is not None and time.monotonic() >= deadline:
                raise StatementTimeoutError(
                    "canceling statement due to statement timeout"
                )

        while True:
            try:
                with self.engine_mutex:
                    self.state.row_locker = row_locker
                    self.state.deadline_check = deadline_check
                    try:
                        return self.db.execute(statement, session=self.state)
                    finally:
                        self.state.row_locker = None
                        self.state.deadline_check = None
            except WouldBlock as blocked:
                # The engine unwound the statement without mutating
                # anything (autocommit: its txn was aborted; block: txn
                # still open, same snapshot). Wait for the contended TID
                # outside the engine mutex, then retry the statement —
                # first-updater-wins then decides if the retry is legal.
                self.retries += 1
                self.locks.acquire(
                    owner,
                    blocked.key,
                    LockMode.EXCLUSIVE,
                    lock_timeout=lk_timeout,
                    deadline=deadline,
                )

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Abort any open transaction, release locks, refuse further work."""
        if self.closed:
            return
        self.closed = True
        self._abort_open_txn()
        self.state.failed = False
        self._end_scope_if_over()
        if self._owner is not None:  # pragma: no cover - defensive
            self.locks.release_all(self._owner)
            self._owner = None
