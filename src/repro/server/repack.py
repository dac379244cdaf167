"""Autovacuum-style background re-clustering of degraded SP-GiST indexes.

``REPACK INDEX`` (the SQL statement) re-clusters a whole index in one
exclusive pass. The :class:`AutoRepacker` is its background counterpart:
a daemon that watches every SP-GiST index's page fill factor and, when
one degrades below a threshold, runs *one bounded step* —
``repack_online(max_subtrees=1)``, the hottest subtree by the store's
per-page read counters — under a short EXCLUSIVE table lock, then
commits so the moved pages ship through the ordinary WAL/replication
path as full page images.

The step is deliberately impatient: it try-acquires the table lock with
a short timeout and simply skips the index when sessions are busy with
it, exactly like autovacuum backing off. Each step leaves the tree
search-consistent (see :meth:`repro.core.tree.SPGiSTIndex.repack_online`),
so a crash between steps — or in the middle of one, before its commit —
recovers to the last committed layout with no special-casing.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator

from repro.core.tree import OnlineRepackStats
from repro.errors import LockTimeoutError, StatementTimeoutError
from repro.obs import METRICS
from repro.server.locks import LockManager, LockMode, LockOwner, table_key

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sql import Database

AUTOREPACK_STEPS = METRICS.counter(
    "autorepack_steps_total", "Background repack steps completed."
)
AUTOREPACK_SKIPS = METRICS.counter(
    "autorepack_skips_total", "Background repack steps skipped on lock contention."
)

#: Birth stamp far above any session transaction: the background repacker
#: must always be the youngest owner, i.e. the preferred deadlock victim.
_REPACK_BIRTH = 1 << 60


class AutoRepacker:
    """Background stepper keeping SP-GiST indexes clustered under churn."""

    def __init__(
        self,
        db: "Database",
        locks: LockManager,
        engine_mutex: threading.RLock | None = None,
        *,
        fill_threshold: float = 0.6,
        interval: float = 0.05,
        lock_timeout: float = 0.05,
    ) -> None:
        self.db = db
        self.locks = locks
        self.engine_mutex = (
            engine_mutex if engine_mutex is not None else threading.RLock()
        )
        self.fill_threshold = fill_threshold
        self.interval = interval
        self.lock_timeout = lock_timeout
        self.steps = 0
        self.skips = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._seq = 0

    # -- candidate selection ---------------------------------------------------

    def candidates(self) -> Iterator[tuple[str, str, float]]:
        """``(table, index, fill)`` for every degraded index whose
        structure repacks online (SP-GiST's does), most degraded first.
        Snapshot under the engine mutex — table DDL mutates the dicts
        this walks."""
        found: list[tuple[str, str, float]] = []
        with self.engine_mutex:
            for table in self.db.tables.values():
                for name, index in table.indexes.items():
                    structure = index.structure
                    if not hasattr(structure, "repack_online"):
                        continue
                    fill = structure.store.fill_factor()
                    if fill < self.fill_threshold:
                        found.append((table.name, name, fill))
        return iter(sorted(found, key=lambda item: item[2]))

    # -- one bounded step ------------------------------------------------------

    def step(self, index_name: str | None = None) -> OnlineRepackStats | None:
        """Repack one subtree of one index; None when nothing needed.

        Takes a short EXCLUSIVE lock on the owning table (skipping the
        index — returning None — if contended), repacks the hottest
        subtree, and commits so the rewritten pages are durable and
        replicated before the lock drops.
        """
        if index_name is None:
            candidate = next(self.candidates(), None)
            if candidate is None:
                return None
            _table_name, index_name, _fill = candidate
        with self.engine_mutex:
            table, index = self.db.find_index(index_name)
        self._seq += 1
        owner = LockOwner(f"autorepack-{self._seq}", _REPACK_BIRTH + self._seq)
        try:
            self.locks.acquire(
                owner,
                table_key(table.name),
                LockMode.EXCLUSIVE,
                lock_timeout=self.lock_timeout,
            )
        except (LockTimeoutError, StatementTimeoutError):
            self.skips += 1
            AUTOREPACK_SKIPS.inc()
            return None
        try:
            with self.engine_mutex:
                stats = index.structure.repack_online(max_subtrees=1)
                # Durable + replicated before anyone reads the new layout.
                self.db._on_txn_commit(None)
        finally:
            self.locks.release_all(owner)
        self.steps += 1
        AUTOREPACK_STEPS.inc()
        return stats

    # -- daemon lifecycle ------------------------------------------------------

    def start(self) -> "AutoRepacker":
        """Run steps on a daemon thread every ``interval`` seconds."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-autorepack", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.step()
            except Exception:  # noqa: BLE001 - background daemon must survive
                # A racing DROP TABLE/INDEX can invalidate the candidate
                # between selection and repack; next tick re-selects.
                continue

    def stop(self) -> None:
        """Signal the daemon thread to exit and join it."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "AutoRepacker":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
