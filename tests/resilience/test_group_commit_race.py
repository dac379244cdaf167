"""WAL group-commit torn-tail truncation racing concurrent commit.

The group-commit buffer means a crash can land while one thread's
records sit half-written in the log file (the torn tail) and other
threads are mid-commit. Kill-anywhere recovery must (a) keep every page
whose ``sync()`` returned before the crash, (b) discard the torn tail
as a clean end-of-log rather than an error, and (c) never resurrect an
unsynced write. Parametrized over buffered (group-commit) and unbuffered
WAL modes, with in-flight sessions at the moment of the crash.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.engine.sql import Database
from repro.server.manager import SessionManager
from repro.settings import SETTINGS
from repro.storage import BufferPool, FileDiskManager


class TestConcurrentCommitCrash:
    @pytest.mark.parametrize("group_commit", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_kill_anywhere_with_racing_committers(
        self, tmp_path, group_commit, seed
    ):
        """Concurrent committer threads, seeded crash, full page audit."""
        path = str(tmp_path / "race.dat")
        # A tiny flush threshold forces mid-commit group flushes, so the
        # unsynced WAL tail is non-empty and tears mid-record.
        disk = FileDiskManager(path, group_commit=group_commit)
        if disk.wal is not None:
            disk.wal.flush_threshold = 64
        disk_mu = threading.Lock()  # the server's engine-mutex role
        committed: dict[int, str] = {}
        crashed = threading.Event()
        rng = random.Random(seed)
        with disk_mu:
            pids = [disk.allocate_page() for _ in range(12)]

        def committer(tid: int) -> None:
            thread_rng = random.Random(seed * 101 + tid)
            step = 0
            while not crashed.is_set():
                batch = {
                    thread_rng.choice(pids): f"t{tid}-s{step}-{i}"
                    for i in range(thread_rng.randint(1, 3))
                }
                step += 1
                try:
                    with disk_mu:
                        if crashed.is_set():
                            return
                        for pid, value in batch.items():
                            disk.write_page(pid, value)
                        disk.sync()
                        # sync() returned: this batch is acked-durable.
                        committed.update(batch)
                except (OSError, ValueError):
                    return  # the crash closed the file under us

        threads = [
            threading.Thread(target=committer, args=(tid,)) for tid in range(4)
        ]
        for thread in threads:
            thread.start()
        # Kill anywhere: after a seeded number of completed commits.
        target = rng.randint(1, 30)
        while True:
            with disk_mu:
                if len(committed) >= min(target, len(pids)) or crashed.is_set():
                    crashed.set()
                    disk.simulate_crash(seed=seed)
                    break
        for thread in threads:
            thread.join(timeout=10)

        recovered = FileDiskManager(path, group_commit=group_commit)
        for pid, value in committed.items():
            assert recovered.read_page(pid) == value, (
                f"acked page {pid} lost (group_commit={group_commit})"
            )
        # The torn tail, if any, was discarded cleanly — scan() already
        # succeeded during recovery; it must also be repeatable.
        records, _ = recovered.wal.scan()
        assert isinstance(records, list)
        recovered.close()

    @pytest.mark.parametrize("group_commit", [True, False])
    def test_crash_with_in_flight_sessions(self, tmp_path, group_commit):
        """Session traffic in flight at the crash: recovery stays clean.

        Sessions drive the engine while a checkpointer commits at page
        level; the crash lands with statements queued and running. The
        assertion is storage-level: everything the last completed
        ``sync()`` covered reads back, and the WAL recovers cleanly.
        """
        path = str(tmp_path / "sessions.dat")
        disk = FileDiskManager(path, group_commit=group_commit)
        if disk.wal is not None:
            disk.wal.flush_threshold = 64
        pool = BufferPool(disk, capacity=64)
        db = Database(buffer=pool)
        settings = SETTINGS.replace(
            statement_timeout=10.0, lock_timeout=5.0
        )
        manager = SessionManager(db, settings=settings)
        boot = manager.connect("boot")
        manager.execute(boot, "CREATE TABLE r (key VARCHAR(24), id INT);")
        manager.execute(
            boot, "CREATE INDEX r_idx ON r USING SP_GiST (key SP_GiST_trie);"
        )
        manager.disconnect(boot)

        stop = threading.Event()

        def writer(tid: int) -> None:
            session = manager.connect(f"w{tid}")
            i = 0
            while not stop.is_set():
                i += 1
                try:
                    manager.execute(
                        session, f"INSERT INTO r VALUES ('k{tid}x{i}', {i});"
                    )
                except Exception:
                    return

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(3)]
        for thread in threads:
            thread.start()

        synced_pages: dict[int, object] = {}
        # Two checkpoints while sessions keep writing, then crash with
        # statements still in flight.
        for _ in range(2):
            with manager.engine_mutex:
                pool.flush_all()
                disk.sync()
                synced_pages = {
                    pid: disk.read_page(pid) for pid in list(disk._offsets)
                }
        with manager.engine_mutex:
            disk.simulate_crash(seed=7)
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        manager.stop()

        recovered = FileDiskManager(path, group_commit=group_commit)
        for pid, value in synced_pages.items():
            assert recovered.read_page(pid) == value
        records, _ = recovered.wal.scan()
        assert isinstance(records, list)
        recovered.close()
