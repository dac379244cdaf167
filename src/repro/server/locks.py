"""Two-phase locking for concurrent sessions: FIFO-fair, deadlock-aware.

The engine itself stays single-threaded behind the manager's engine mutex;
this lock manager provides the *logical* concurrency control above it.
Sessions take table-level locks per statement (shared for SELECT, row
intent for DML, exclusive for VACUUM/DDL) and TID-level exclusive locks
per would-be-updated tuple, hold them to transaction end (strict 2PL),
and block *outside* the engine mutex when a lock is busy — so a waiter
never stalls the engine for everyone else.

Design points, each covered by tests:

- **Modes.** ``SHARED`` < ``ROW`` < ``EXCLUSIVE`` by strength. SHARED and
  ROW are mutually compatible (readers never block writers — MVCC handles
  visibility; ROW vs ROW conflicts are resolved per-TID); EXCLUSIVE
  conflicts with everything including itself.
- **FIFO fairness.** A request that is compatible with current holders
  still queues behind earlier waiters (no barging), so a stream of
  readers cannot starve a waiting VACUUM. Lock *upgrades* (holder asking
  for a stronger mode) jump to the queue head instead — an upgrader
  waiting behind a fresh request on the same key would deadlock trivially.
- **Deadlock detection.** Every time an owner starts waiting we walk the
  wait-for graph (waiter -> incompatible holders and incompatible earlier
  waiters). Any *new* cycle must pass through the newest waiter, so one
  DFS from it is complete. The youngest transaction in the cycle (highest
  ``birth``) is doomed; doomed waiters wake and raise
  :class:`~repro.errors.DeadlockError`, which is retryable after rollback.
- **Deadlines.** ``acquire`` honours both a relative ``lock_timeout``
  (:class:`~repro.errors.LockTimeoutError`) and an absolute statement
  ``deadline`` (:class:`~repro.errors.StatementTimeoutError`), whichever
  bites first.
- **Dual accounting.** Prometheus gauges/counters are updated alongside a
  plain ``stats()`` dict computed from first-principles state, and a test
  reconciles the two so the metrics can't silently drift.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Hashable, Iterable

from repro.errors import DeadlockError, LockTimeoutError, StatementTimeoutError
from repro.obs import METRICS

LOCKS_HELD = METRICS.gauge(
    "lock_manager_held", "Granted (owner, key) lock pairs currently held."
)
LOCKS_WAITERS = METRICS.gauge(
    "lock_manager_waiters", "Owners currently blocked waiting for a lock."
)
LOCKS_WAIT_EDGES = METRICS.gauge(
    "lock_manager_wait_edges", "Edges in the current wait-for graph."
)
LOCK_ACQUIRES = METRICS.counter(
    "lock_acquires_total", "Lock grants (immediate or after waiting)."
)
LOCK_WAITS = METRICS.counter(
    "lock_waits_total", "Lock requests that had to block before a verdict."
)
LOCK_DEADLOCKS = METRICS.counter(
    "lock_deadlocks_total", "Lock waits aborted as deadlock victims."
)
LOCK_TIMEOUTS = METRICS.counter(
    "lock_timeouts_total", "Lock waits aborted by lock/statement deadlines."
)
LOCK_WAKEUPS = METRICS.counter(
    "lock_wakeups_total", "Times a blocked waiter's wait() returned."
)


class LockMode(Enum):
    """Lock strength; compare via :data:`_STRENGTH`, not enum order."""

    SHARED = "shared"
    ROW = "row"
    EXCLUSIVE = "exclusive"


_STRENGTH = {LockMode.SHARED: 0, LockMode.ROW: 1, LockMode.EXCLUSIVE: 2}


def compatible(a: LockMode, b: LockMode) -> bool:
    """The lock compatibility matrix (symmetric).

    SHARED/ROW coexist in every combination; EXCLUSIVE coexists with
    nothing. Row-vs-row write conflicts are handled one level down by
    per-TID EXCLUSIVE locks, not by the table-level ROW mode.
    """
    return a is not LockMode.EXCLUSIVE and b is not LockMode.EXCLUSIVE


@dataclass(frozen=True)
class LockOwner:
    """The lock-table identity of one session's current transaction.

    ``birth`` is a monotonically increasing stamp (the transaction id):
    higher means younger, and the youngest member of a deadlock cycle is
    the victim — it has done the least work to throw away.
    """

    name: str
    birth: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LockOwner({self.name}, birth={self.birth})"


class _Waiter:
    __slots__ = ("owner", "mode", "upgrade", "granted", "doomed", "cv")

    def __init__(
        self,
        owner: LockOwner,
        mode: LockMode,
        upgrade: bool,
        cv: threading.Condition,
    ) -> None:
        self.owner = owner
        self.mode = mode
        self.upgrade = upgrade
        self.granted = False
        self.doomed = False
        #: condition this waiter alone blocks on, so a grant/doom wakes
        #: exactly one thread.
        self.cv = cv


class LockManager:
    """FIFO-fair shared/row/exclusive locks with deadlock detection.

    Keys are arbitrary hashables; the session layer uses
    ``("table", name)`` and ``("row", name, tid)``. One mutex guards all
    state, but each blocked waiter sleeps on its *own* condition variable
    (sharing that mutex), so a release wakes only the waiters whose
    verdict actually changed — with N sessions parked, a grant is one
    targeted ``notify()``, not an N-thread thundering herd that mostly
    re-checks state and goes back to sleep.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        #: key -> {owner: granted mode}
        self._holders: dict[Hashable, dict[LockOwner, LockMode]] = {}
        #: key -> FIFO list of waiters (upgrades at the head)
        self._queues: dict[Hashable, list[_Waiter]] = {}
        #: owner -> set of keys it holds (release_all index)
        self._owned: dict[LockOwner, set[Hashable]] = {}
        self._deadlocks = 0
        self._timeouts = 0
        self._waits = 0
        self._grants = 0
        self._wakeups = 0

    # -- public API -----------------------------------------------------------

    def try_acquire(self, owner: LockOwner, key: Hashable, mode: LockMode) -> bool:
        """Grant ``(key, mode)`` to ``owner`` iff it needs no waiting.

        Fair: a request that would barge past queued waiters is refused
        even when compatible with the current holders.
        """
        with self._mutex:
            held = self._holders.get(key, {}).get(owner)
            if held is not None and _STRENGTH[held] >= _STRENGTH[mode]:
                return True
            if self._grantable(key, owner, mode, upgrade=held is not None):
                self._grant(key, owner, mode)
                self._refresh_gauges()
                return True
            return False

    def acquire(
        self,
        owner: LockOwner,
        key: Hashable,
        mode: LockMode,
        *,
        lock_timeout: float | None = None,
        deadline: float | None = None,
    ) -> None:
        """Grant ``(key, mode)``, blocking FIFO-fair until possible.

        Raises :class:`DeadlockError` if this wait closes a cycle and the
        owner is its youngest member (or is doomed by a later waiter),
        :class:`LockTimeoutError` after ``lock_timeout`` seconds of
        waiting, and :class:`StatementTimeoutError` once ``deadline``
        (an absolute ``time.monotonic()`` stamp) passes. On any raise the
        request is cleanly dequeued; previously held locks are untouched
        (the caller aborts the transaction and calls :meth:`release_all`).
        """
        with self._mutex:
            held = self._holders.get(key, {}).get(owner)
            if held is not None and _STRENGTH[held] >= _STRENGTH[mode]:
                return
            upgrade = held is not None
            if self._grantable(key, owner, mode, upgrade=upgrade):
                self._grant(key, owner, mode)
                self._refresh_gauges()
                return

            waiter = _Waiter(
                owner, mode, upgrade, threading.Condition(self._mutex)
            )
            queue = self._queues.setdefault(key, [])
            # Upgrades go to the head: the upgrader already holds the key,
            # so anything queued ahead of it could never be granted anyway.
            if upgrade:
                queue.insert(0, waiter)
            else:
                queue.append(waiter)
            self._waits += 1
            LOCK_WAITS.inc()
            self._refresh_gauges()

            victim = self._find_deadlock_victim(owner)
            if victim == owner:
                self._abandon(key, waiter)
                self._deadlocks += 1
                LOCK_DEADLOCKS.inc()
                raise DeadlockError(
                    f"deadlock detected: {owner.name} waiting for {key!r}"
                )
            if victim is not None:
                self._doom(victim)

            lock_deadline = (
                None if lock_timeout is None else time.monotonic() + lock_timeout
            )
            while True:
                if waiter.granted:
                    self._refresh_gauges()
                    return
                if waiter.doomed:
                    self._abandon(key, waiter)
                    self._deadlocks += 1
                    LOCK_DEADLOCKS.inc()
                    raise DeadlockError(
                        f"deadlock detected: {owner.name} chosen as victim"
                        f" while waiting for {key!r}"
                    )
                bounds = [b for b in (lock_deadline, deadline) if b is not None]
                if bounds:
                    now = time.monotonic()
                    cutoff = min(bounds)
                    if now >= cutoff:
                        self._abandon(key, waiter)
                        self._timeouts += 1
                        LOCK_TIMEOUTS.inc()
                        if deadline is not None and cutoff == deadline:
                            raise StatementTimeoutError(
                                f"canceling statement due to statement timeout"
                                f" while {owner.name} waited for {key!r}"
                            )
                        raise LockTimeoutError(
                            f"canceling statement due to lock timeout:"
                            f" {owner.name} could not acquire {key!r}"
                        )
                    waiter.cv.wait(cutoff - now)
                    self._wakeups += 1
                    LOCK_WAKEUPS.inc()
                else:
                    waiter.cv.wait()
                    self._wakeups += 1
                    LOCK_WAKEUPS.inc()

    def release_all(self, owner: LockOwner) -> None:
        """Drop every lock ``owner`` holds and wake newly-grantable waiters.

        Called exactly once per transaction end (commit, rollback, or
        abort) — strict two-phase locking has no mid-transaction release.
        """
        with self._mutex:
            keys = self._owned.pop(owner, set())
            for key in keys:
                holders = self._holders.get(key)
                if holders is not None:
                    holders.pop(owner, None)
                    if not holders:
                        del self._holders[key]
                self._promote(key)
            self._refresh_gauges()

    def held_by(self, owner: LockOwner) -> dict[Hashable, LockMode]:
        """A snapshot of ``owner``'s granted locks (tests/introspection)."""
        with self._mutex:
            return {
                key: self._holders[key][owner]
                for key in self._owned.get(owner, set())
                if owner in self._holders.get(key, {})
            }

    def stats(self) -> dict[str, Any]:
        """First-principles accounting, reconciled against METRICS in tests."""
        with self._mutex:
            edges = self._wait_edges()
            return {
                "held": sum(len(h) for h in self._holders.values()),
                "waiters": sum(
                    1
                    for q in self._queues.values()
                    for w in q
                    if not w.granted and not w.doomed
                ),
                "wait_edges": sum(len(t) for t in edges.values()),
                "deadlocks": self._deadlocks,
                "timeouts": self._timeouts,
                "waits": self._waits,
                "grants": self._grants,
                "wakeups": self._wakeups,
            }

    # -- internals (call with self._mutex held) --------------------------------

    def _grantable(
        self, key: Hashable, owner: LockOwner, mode: LockMode, *, upgrade: bool
    ) -> bool:
        for holder, hmode in self._holders.get(key, {}).items():
            if holder != owner and not compatible(mode, hmode):
                return False
        if not upgrade:
            # Fairness: never barge past existing (live) waiters.
            for waiter in self._queues.get(key, ()):
                if not waiter.granted and not waiter.doomed:
                    return False
        return True

    def _grant(self, key: Hashable, owner: LockOwner, mode: LockMode) -> None:
        holders = self._holders.setdefault(key, {})
        prior = holders.get(owner)
        if prior is None or _STRENGTH[mode] > _STRENGTH[prior]:
            holders[owner] = mode
        self._owned.setdefault(owner, set()).add(key)
        self._grants += 1
        LOCK_ACQUIRES.inc()

    def _promote(self, key: Hashable) -> None:
        """Grant queued waiters at ``key`` in FIFO order until one can't."""
        queue = self._queues.get(key)
        if not queue:
            return
        remaining: list[_Waiter] = []
        blocked = False
        for waiter in queue:
            if waiter.granted or waiter.doomed:
                remaining.append(waiter)
                continue
            if blocked:
                remaining.append(waiter)
                continue
            ok = True
            for holder, hmode in self._holders.get(key, {}).items():
                if holder != waiter.owner and not compatible(waiter.mode, hmode):
                    ok = False
                    break
            if ok:
                self._grant(key, waiter.owner, waiter.mode)
                waiter.granted = True
                waiter.cv.notify()
                remaining.append(waiter)
            else:
                blocked = True
                remaining.append(waiter)
        self._queues[key] = remaining

    def _abandon(self, key: Hashable, waiter: _Waiter) -> None:
        """Remove a timed-out/doomed waiter and re-run promotion.

        The departing waiter may have been the FIFO head blocking
        compatible requests behind it, so promotion must re-run.
        """
        queue = self._queues.get(key)
        if queue is not None and waiter in queue:
            queue.remove(waiter)
            if not queue:
                del self._queues[key]
        self._promote(key)  # notifies any waiter it grants
        self._refresh_gauges()

    def _wait_edges(self) -> dict[LockOwner, set[LockOwner]]:
        """waiter -> {owners it waits on}: incompatible holders plus
        incompatible earlier (live) waiters, which FIFO order will grant
        first."""
        edges: dict[LockOwner, set[LockOwner]] = {}
        for key, queue in self._queues.items():
            holders = self._holders.get(key, {})
            live_ahead: list[_Waiter] = []
            for waiter in queue:
                if waiter.granted or waiter.doomed:
                    continue
                targets = {
                    holder
                    for holder, hmode in holders.items()
                    if holder != waiter.owner and not compatible(waiter.mode, hmode)
                }
                targets.update(
                    ahead.owner
                    for ahead in live_ahead
                    if ahead.owner != waiter.owner
                    and not compatible(waiter.mode, ahead.mode)
                )
                if targets:
                    edges.setdefault(waiter.owner, set()).update(targets)
                live_ahead.append(waiter)
        return edges

    def _find_deadlock_victim(self, start: LockOwner) -> LockOwner | None:
        """DFS from the newest waiter; return the youngest owner of a
        cycle through it, or None. (Any new cycle contains ``start``.)"""
        edges = self._wait_edges()
        path: list[LockOwner] = [start]
        on_path = {start}
        visited: set[LockOwner] = set()

        def dfs(node: LockOwner) -> list[LockOwner] | None:
            for nxt in sorted(edges.get(node, ()), key=lambda o: (o.birth, o.name)):
                if nxt == start:
                    return list(path)
                if nxt in on_path or nxt in visited:
                    continue
                path.append(nxt)
                on_path.add(nxt)
                cycle = dfs(nxt)
                if cycle is not None:
                    return cycle
                on_path.discard(nxt)
                path.pop()
            visited.add(node)
            return None

        cycle = dfs(start)
        if cycle is None:
            return None
        return max(cycle, key=lambda o: (o.birth, o.name))

    def _doom(self, victim: LockOwner) -> None:
        for queue in self._queues.values():
            for waiter in queue:
                if waiter.owner == victim and not waiter.granted:
                    waiter.doomed = True
                    waiter.cv.notify()

    def _refresh_gauges(self) -> None:
        LOCKS_HELD.set(sum(len(h) for h in self._holders.values()))
        LOCKS_WAITERS.set(
            sum(
                1
                for q in self._queues.values()
                for w in q
                if not w.granted and not w.doomed
            )
        )
        LOCKS_WAIT_EDGES.set(sum(len(t) for t in self._wait_edges().values()))


def table_key(name: str) -> tuple[str, str]:
    """The lock key for a whole table."""
    return ("table", name.lower())


def row_key(name: str, tid: Any) -> tuple[str, str, Any]:
    """The lock key for one tuple (TID) of a table."""
    return ("row", name.lower(), tid)


def release_owners(manager: LockManager, owners: Iterable[LockOwner]) -> None:
    """Bulk release (chaos teardown helper)."""
    for owner in owners:
        manager.release_all(owner)
