"""LockManager unit tests: matrix, fairness, deadlocks, timeouts, accounting."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import DeadlockError, LockTimeoutError, StatementTimeoutError
from repro.server.locks import (
    LockManager,
    LockMode,
    LockOwner,
    compatible,
    row_key,
    table_key,
)


@pytest.fixture
def lm():
    return LockManager()


def _owner(name: str, birth: int) -> LockOwner:
    return LockOwner(name, birth)


class TestCompatibilityMatrix:
    def test_shared_and_row_coexist(self):
        assert compatible(LockMode.SHARED, LockMode.SHARED)
        assert compatible(LockMode.SHARED, LockMode.ROW)
        assert compatible(LockMode.ROW, LockMode.ROW)

    def test_exclusive_conflicts_with_everything(self):
        for mode in LockMode:
            assert not compatible(LockMode.EXCLUSIVE, mode)
            assert not compatible(mode, LockMode.EXCLUSIVE)

    def test_concurrent_shared_grants(self, lm):
        a, b = _owner("a", 1), _owner("b", 2)
        key = table_key("t")
        assert lm.try_acquire(a, key, LockMode.SHARED)
        assert lm.try_acquire(b, key, LockMode.SHARED)
        assert not lm.try_acquire(_owner("c", 3), key, LockMode.EXCLUSIVE)

    def test_reentrant_same_mode(self, lm):
        a = _owner("a", 1)
        key = row_key("t", 7)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)
        assert lm.stats()["held"] == 1


class TestFIFOFairness:
    def test_no_barging_past_waiters(self, lm):
        """A reader arriving behind a queued EXCLUSIVE must queue too."""
        reader1, vac, reader2 = _owner("r1", 1), _owner("v", 2), _owner("r2", 3)
        key = table_key("t")
        assert lm.try_acquire(reader1, key, LockMode.SHARED)

        granted = []
        threads = []

        def worker(owner, mode, tag):
            lm.acquire(owner, key, mode, lock_timeout=10)
            granted.append(tag)

        t_vac = threading.Thread(target=worker, args=(vac, LockMode.EXCLUSIVE, "vac"))
        t_vac.start()
        time.sleep(0.05)  # vac is queued behind reader1's grant
        # reader2 is compatible with reader1 but must NOT barge past vac.
        assert not lm.try_acquire(reader2, key, LockMode.SHARED)
        t_r2 = threading.Thread(target=worker, args=(reader2, LockMode.SHARED, "r2"))
        t_r2.start()
        time.sleep(0.05)
        assert granted == []
        lm.release_all(reader1)
        t_vac.join(timeout=5)
        assert granted == ["vac"]
        lm.release_all(vac)
        t_r2.join(timeout=5)
        assert granted == ["vac", "r2"]
        lm.release_all(reader2)

    def test_upgrade_jumps_queue(self, lm):
        """A holder upgrading must not deadlock behind its own queue."""
        holder, other = _owner("h", 1), _owner("o", 2)
        key = table_key("t")
        assert lm.try_acquire(holder, key, LockMode.SHARED)
        done = []

        def want_exclusive():
            lm.acquire(other, key, LockMode.EXCLUSIVE, lock_timeout=10)
            done.append("other")

        thread = threading.Thread(target=want_exclusive)
        thread.start()
        time.sleep(0.05)
        # holder upgrades SHARED -> EXCLUSIVE past the queued waiter.
        lm.acquire(holder, key, LockMode.EXCLUSIVE, lock_timeout=5)
        assert lm.held_by(holder)[key] is LockMode.EXCLUSIVE
        lm.release_all(holder)
        thread.join(timeout=5)
        assert done == ["other"]
        lm.release_all(other)


class TestDeadlockDetection:
    def test_two_cycle_youngest_victim(self, lm):
        old, young = _owner("old", 1), _owner("young", 2)
        k1, k2 = row_key("t", 1), row_key("t", 2)
        assert lm.try_acquire(old, k1, LockMode.EXCLUSIVE)
        assert lm.try_acquire(young, k2, LockMode.EXCLUSIVE)

        outcome = {}

        def older_waits():
            try:
                lm.acquire(old, k2, LockMode.EXCLUSIVE, lock_timeout=10)
                outcome["old"] = "granted"
            except DeadlockError:
                outcome["old"] = "deadlock"
                lm.release_all(old)

        thread = threading.Thread(target=older_waits)
        thread.start()
        time.sleep(0.05)
        # young closes the cycle and, being youngest, is the victim.
        with pytest.raises(DeadlockError):
            lm.acquire(young, k1, LockMode.EXCLUSIVE, lock_timeout=10)
        lm.release_all(young)
        thread.join(timeout=5)
        assert outcome["old"] == "granted"
        lm.release_all(old)
        assert lm.stats()["deadlocks"] == 1

    def test_doomed_waiter_wakes_with_deadlock_error(self, lm):
        """The victim can be a transaction already waiting (not the newest)."""
        a, b, c = _owner("a", 1), _owner("b", 2), _owner("c", 3)
        k1, k2, k3 = row_key("t", 1), row_key("t", 2), row_key("t", 3)
        assert lm.try_acquire(a, k1, LockMode.EXCLUSIVE)
        assert lm.try_acquire(b, k2, LockMode.EXCLUSIVE)
        assert lm.try_acquire(c, k3, LockMode.EXCLUSIVE)

        results = {}

        def wait(owner, key, tag):
            try:
                lm.acquire(owner, key, LockMode.EXCLUSIVE, lock_timeout=10)
                results[tag] = "granted"
            except DeadlockError:
                results[tag] = "deadlock"
            # Transaction over either way: strict 2PL releases at the end,
            # which is also what lets the remaining waiters drain.
            lm.release_all(owner)

        # c (youngest) waits first: c -> a. Then b -> c's held key? No:
        # build cycle a -> b -> c -> a with c already parked when a closes it.
        t_c = threading.Thread(target=wait, args=(c, k1, "c"))
        t_c.start()
        time.sleep(0.05)
        t_b = threading.Thread(target=wait, args=(b, k3, "b"))
        t_b.start()
        time.sleep(0.05)
        t_a = threading.Thread(target=wait, args=(a, k2, "a"))
        t_a.start()
        for thread in (t_c, t_b, t_a):
            thread.join(timeout=10)
        # Exactly one victim, and it is the youngest in the cycle: c.
        assert results["c"] == "deadlock"
        assert results["a"] == "granted"
        assert results["b"] == "granted"
        assert lm.stats()["held"] == 0

    def test_no_false_positives_on_plain_contention(self, lm):
        a, b = _owner("a", 1), _owner("b", 2)
        key = row_key("t", 1)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)

        def release_soon():
            time.sleep(0.05)
            lm.release_all(a)

        thread = threading.Thread(target=release_soon)
        thread.start()
        lm.acquire(b, key, LockMode.EXCLUSIVE, lock_timeout=5)
        thread.join()
        lm.release_all(b)
        assert lm.stats()["deadlocks"] == 0


class TestTimeouts:
    def test_lock_timeout(self, lm):
        a, b = _owner("a", 1), _owner("b", 2)
        key = row_key("t", 1)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)
        start = time.monotonic()
        with pytest.raises(LockTimeoutError):
            lm.acquire(b, key, LockMode.EXCLUSIVE, lock_timeout=0.1)
        assert time.monotonic() - start < 2.0
        assert lm.stats()["timeouts"] == 1
        # The timed-out waiter is fully dequeued.
        assert lm.stats()["waiters"] == 0
        lm.release_all(a)

    def test_statement_deadline_beats_lock_timeout(self, lm):
        a, b = _owner("a", 1), _owner("b", 2)
        key = row_key("t", 1)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)
        with pytest.raises(StatementTimeoutError):
            lm.acquire(
                b, key, LockMode.EXCLUSIVE,
                lock_timeout=5.0, deadline=time.monotonic() + 0.1,
            )
        lm.release_all(a)

    def test_release_unblocks_waiter_before_timeout(self, lm):
        a, b = _owner("a", 1), _owner("b", 2)
        key = row_key("t", 1)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)

        def release_soon():
            time.sleep(0.05)
            lm.release_all(a)

        threading.Thread(target=release_soon).start()
        lm.acquire(b, key, LockMode.EXCLUSIVE, lock_timeout=5.0)
        assert lm.held_by(b)[key] is LockMode.EXCLUSIVE
        lm.release_all(b)


class TestAccounting:
    def test_release_all_is_complete(self, lm):
        a = _owner("a", 1)
        for i in range(5):
            assert lm.try_acquire(a, row_key("t", i), LockMode.EXCLUSIVE)
        assert lm.try_acquire(a, table_key("t"), LockMode.ROW)
        assert lm.stats()["held"] == 6
        lm.release_all(a)
        assert lm.stats()["held"] == 0
        assert lm.held_by(a) == {}

    def test_stats_reconcile_with_metrics(self, lm):
        """Dual accounting: stats() vs. the Prometheus text endpoint."""
        from repro.obs import METRICS

        a, b = _owner("a", 1), _owner("b", 2)
        key = row_key("t", 1)
        assert lm.try_acquire(a, key, LockMode.EXCLUSIVE)

        def blocked():
            try:
                lm.acquire(b, key, LockMode.EXCLUSIVE, lock_timeout=0.5)
            except LockTimeoutError:
                pass

        thread = threading.Thread(target=blocked)
        thread.start()
        time.sleep(0.1)
        stats = lm.stats()
        gauges = _lock_gauges(METRICS.render())
        assert gauges["lock_manager_held"] == stats["held"] == 1
        assert gauges["lock_manager_waiters"] == stats["waiters"] == 1
        assert gauges["lock_manager_wait_edges"] == stats["wait_edges"] == 1
        thread.join(timeout=5)
        lm.release_all(a)
        stats = lm.stats()
        assert stats["held"] == 0 and stats["waiters"] == 0
        gauges = _lock_gauges(METRICS.render())
        assert gauges["lock_manager_held"] == 0.0
        assert gauges["lock_manager_waiters"] == 0.0

    def test_pingpong_wakes_each_waiter_at_most_once_per_wait(self, lm):
        """Per-waiter conditions: a release wakes the next grantee, not
        every parked thread, so wakeups never exceed waits."""
        threads, rounds = 8, 60
        key = table_key("t")
        barrier = threading.Barrier(threads)

        def worker(i):
            owner = _owner(f"w{i}", i + 1)
            barrier.wait()
            for _ in range(rounds):
                lm.acquire(owner, key, LockMode.EXCLUSIVE)
                time.sleep(0)  # yield while holding: the others park
                lm.release_all(owner)

        workers = [
            threading.Thread(target=worker, args=(i,)) for i in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in workers)
        stats = lm.stats()
        assert stats["grants"] == threads * rounds
        assert stats["waits"] > 0, "no contention: the storm measured nothing"
        assert stats["wakeups"] <= stats["waits"]


def _lock_gauges(rendered: str) -> dict[str, float]:
    """Parse the lock-manager gauges out of the Prometheus text format."""
    gauges = {}
    for line in rendered.splitlines():
        if line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        # Strip the registry namespace prefix ("repro_").
        short = name.split("_", 1)[1] if "_" in name else name
        if short.startswith("lock_manager_"):
            gauges[short] = float(value)
    return gauges
