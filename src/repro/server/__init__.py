"""The concurrent session server: sessions, locks, admission control.

PostgreSQL exercises SP-GiST from many concurrent backends; this package
supplies that serving layer for the reproduction:

- :class:`~repro.server.locks.LockManager` — table- and TID-level
  shared/row/exclusive locks, FIFO-fair queues, wait-for-graph deadlock
  detection with youngest-victim abort, lock-wait and statement deadlines;
- :class:`~repro.server.session.Session` — one connection owning at most
  one open transaction, two-phase-locked DML, typed timeout/deadlock
  errors with clean transaction abort;
- :class:`~repro.server.manager.SessionManager` — runs each statement on
  its caller's thread, one at a time per session, with a bounded count
  of statements in flight (:class:`~repro.errors.ServerOverloadedError`
  backpressure), read-only shedding to lag-bounded standby reads under
  overload, and the exactly-once dedup cache;
- :class:`~repro.server.bridge.ReplicatedDatabase` — the SQL façade over
  a :class:`~repro.replication.ReplicaSet` primary: commits are made
  durable, shipped, and quorum-acknowledged; failover rebinds the façade
  and fences off transactions begun on the old primary;
- :mod:`~repro.server.net` — a line-based text protocol (execute SQL
  string -> rows/error) over TCP, with a tiny blocking client.
"""

from repro.server.bridge import ReplicatedDatabase
from repro.server.locks import LockManager, LockMode, LockOwner
from repro.server.manager import SessionManager
from repro.server.session import Session

__all__ = [
    "LockManager",
    "LockMode",
    "LockOwner",
    "ReplicatedDatabase",
    "Session",
    "SessionManager",
]
