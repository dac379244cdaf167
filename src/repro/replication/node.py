"""One replicated "server": disk + buffer pool + engine stack + a role.

A :class:`StorageNode` owns a complete vertical slice of the system — a
:class:`~repro.storage.filedisk.FileDiskManager` (checksummed pages, WAL),
a :class:`~repro.storage.buffer.BufferPool`, and an engine
:class:`~repro.engine.table.Table` with one SP-GiST index — plus a
replication role:

- a **primary** runs writes through the engine, commits them (one WAL
  commit per client write), and frames each commit's records into a
  :class:`~repro.replication.segments.WALSegment` via a WAL commit
  listener;
- a **standby** has no local WAL: it applies shipped segments through the
  shared redo primitive
  (:meth:`~repro.storage.filedisk.FileDiskManager.apply_record`),
  checkpoints after each segment, and *revives* its in-memory engine
  objects from the replicated **meta page**.

The meta page (page id 0, allocated before any engine page) carries a
pickled snapshot of the engine's in-memory bookkeeping — heap page list,
tuple count, index root/page list/node count — written by the primary
immediately before every commit. Because it is an ordinary data page, it
replicates through the ordinary WAL stream: a standby that has applied
segment N holds, byte-for-byte, the primary's engine state as of commit N.
This is the reproduction's analogue of PostgreSQL's metapage-buffer
pattern (B-tree/SP-GiST metapages travel as plain WAL'd pages too).

Promotion (:meth:`StorageNode.promote`) turns a standby into a primary in
place: buffered out-of-order segments are truncated away (the divergence
truncation counted by ``replication_divergence_truncations_total``), a
fresh WAL is attached with its LSN floor raised past everything applied,
and a commit listener starts framing new segments from the applied commit
sequence onward.
"""

from __future__ import annotations

import os
import shutil
from typing import Any, Iterator

from repro.engine.catalog import default_catalog
from repro.engine.table import Column, Table, VacuumStats
from repro.engine.txn import TransactionManager
from repro.errors import ReplicaDivergedError, ReplicationError
from repro.obs import METRICS
from repro.replication.segments import WALSegment
from repro.storage.buffer import BufferPool
from repro.storage.filedisk import FileDiskManager
from repro.storage.heap import TupleId
from repro.storage.wal import REC_COMMIT

#: The engine-state snapshot page: always page id 0, always written last
#: before a commit, never read through the buffer pool.
META_PAGE_ID = 0

#: ``kind`` -> (column type, operator class, opclass kwargs): the schemas a
#: replicated node can serve. One indexed key column plus a row id, the
#: paper's Table 6 shape.
NODE_SCHEMAS: dict[str, tuple[str, str, dict]] = {
    "trie": ("varchar", "SP_GiST_trie", {"bucket_size": 4}),
    "kdtree": ("point", "SP_GiST_kdtree", {}),
    "pquad": ("point", "SP_GiST_pquadtree", {"bucket_size": 4}),
    "pmr": ("lseg", "SP_GiST_pmr", {}),
}

_SEGMENTS_SHIPPED = METRICS.counter(
    "replication_segments_shipped_total",
    "WAL segments framed by primaries for shipping",
)
_SEGMENTS_APPLIED = METRICS.counter(
    "replication_segments_applied_total",
    "WAL segments applied by standbys",
)
_SEGMENTS_DUPLICATE = METRICS.counter(
    "replication_segments_duplicate_total",
    "Shipped segments ignored as duplicates (seq already applied)",
)
_SEGMENTS_BUFFERED = METRICS.counter(
    "replication_segments_buffered_total",
    "Out-of-order segments held until the sequence gap closed",
)
_DIVERGENCE_TRUNCATIONS = METRICS.counter(
    "replication_divergence_truncations_total",
    "Buffered segments truncated away at promotion (WAL divergence)",
)

_INDEX_NAME = "replicated_idx"
_TABLE_NAME = "data"


class StorageNode:
    """A replication participant: primary, standby, or crashed.

    Build primaries with :meth:`create_primary` and standbys with
    :meth:`basebackup`; an existing data directory reopens through
    :meth:`restart`.
    """

    def __init__(
        self,
        name: str,
        path: str,
        kind: str,
        role: str,
        fsync: bool = True,
        pool_pages: int = 64,
    ) -> None:
        if kind not in NODE_SCHEMAS:
            raise ReplicationError(
                f"unknown node schema kind {kind!r}; "
                f"choose from {sorted(NODE_SCHEMAS)}"
            )
        if role not in ("primary", "standby"):
            raise ReplicationError(f"unknown role {role!r}")
        self.name = name
        self.path = path
        self.kind = kind
        self.role = role
        self.fsync = fsync
        self.pool_pages = pool_pages
        self.crashed = False
        #: Primary state.
        self.commit_seq = 0
        self.outbox: list[WALSegment] = []  # segments awaiting shipping
        self.archive: list[WALSegment] = []  # retransmit store
        self.archive_floor = 0  # lowest seq the archive can serve, minus one
        self._listener = None
        #: Standby state.
        self.applied_seq = 0
        self.applied_lsn = 0
        self._pending: dict[int, WALSegment] = {}
        self.needs_resync = False

        use_wal = role == "primary"
        self.disk = FileDiskManager(path, use_wal=use_wal, fsync=fsync)
        self.pool = BufferPool(self.disk, capacity=pool_pages)
        self.table: Table | None = None
        self._build_engine()

    # -- construction ---------------------------------------------------------

    @classmethod
    def create_primary(
        cls,
        name: str,
        path: str,
        kind: str,
        fsync: bool = True,
        pool_pages: int = 64,
    ) -> "StorageNode":
        """Initialize a brand-new primary data directory at ``path``."""
        if os.path.exists(path):
            raise ReplicationError(f"data file {path!r} already exists")
        node = cls(name, path, kind, "primary", fsync=fsync, pool_pages=pool_pages)
        node._attach_listener()
        node.commit()  # commit 1: the empty schema, so standbys can backup
        # Commit 1's earliest records predate the listener, so its archived
        # segment is incomplete; standbys bootstrap by basebackup (always at
        # seq >= 1), never by streaming from seq 0. Pruning makes any such
        # request an explicit full-resync instead of a silent gap.
        node.archive = []
        node.archive_floor = 1
        node.outbox = []
        return node

    @classmethod
    def reopen_primary(
        cls,
        name: str,
        path: str,
        kind: str,
        fsync: bool = True,
        pool_pages: int = 64,
    ) -> "StorageNode":
        """Cold-start a primary from an existing data directory.

        The same recovery path :meth:`restart` runs after a crash —
        opening the WAL replays committed records and discards the
        uncommitted tail, and the meta page names the commit the files
        represent — but reachable without a prior in-process crash, so a
        cluster can shut down cleanly and reopen its shards later.
        """
        if not os.path.exists(path):
            raise ReplicationError(f"data file {path!r} does not exist")
        node = cls(name, path, kind, "primary", fsync=fsync, pool_pages=pool_pages)
        node.commit_seq = node.meta_commit_seq
        node.archive = []
        node.archive_floor = node.commit_seq
        node.outbox = []
        node._attach_listener()
        return node

    @classmethod
    def basebackup(
        cls,
        primary: "StorageNode",
        name: str,
        path: str,
        fsync: bool = True,
        pool_pages: int = 64,
    ) -> "StorageNode":
        """Clone ``primary``'s checkpointed files into a new hot standby.

        The primary is checkpointed first (``disk.sync()``), then the data
        file and page table are copied; history up to the checkpoint
        transfers by file copy, everything after by the segment stream —
        PostgreSQL's ``pg_basebackup`` + streaming split. The caller must
        ship every segment committed *after* this call to the new standby.
        """
        primary._require_alive()
        primary.pool.flush_all()
        primary.disk.sync()  # no new commit seq: just make the files current
        for source, target in ((primary.path, path), (primary.path + ".map", path + ".map")):
            shutil.copyfile(source, target)
        node = cls(name, path, primary.kind, "standby", fsync=fsync, pool_pages=pool_pages)
        node.applied_seq = primary.commit_seq
        node.applied_lsn = primary.disk.map_lsn
        return node

    def _build_engine(self) -> None:
        """Create (or re-create) the Table + index objects over the disk.

        On a fresh primary this also allocates the meta page (id 0) and
        the initial empty snapshot; on any reopened/cloned directory the
        engine state is revived from the replicated meta page instead.
        """
        fresh = self.disk.num_pages == 0
        column_type, opclass_name, opclass_kwargs = NODE_SCHEMAS[self.kind]
        catalog = default_catalog()
        columns = [Column("key", column_type), Column("id", "int")]
        if fresh:
            meta_page = self.disk.allocate_page()
            if meta_page != META_PAGE_ID:
                raise ReplicationError(
                    f"meta page allocated as {meta_page}, expected {META_PAGE_ID}"
                )
        self.txn = TransactionManager()
        self.table = Table(_TABLE_NAME, columns, self.pool, catalog,
                           txn=self.txn)
        index = self.table.create_index(
            _INDEX_NAME, "key", opclass_name=opclass_name, **opclass_kwargs
        )
        if fresh:
            self._write_meta()
        else:
            self._revive_from_meta()
        _ = index

    # -- meta page: engine-state snapshot -------------------------------------

    def _write_meta(self) -> None:
        """Snapshot the engine's in-memory bookkeeping into page 0."""
        table = self.table
        assert table is not None
        index = table.indexes[_INDEX_NAME]
        store = index.structure.store
        meta = {
            "commit_seq": self.commit_seq,
            "kind": self.kind,
            "heap_page_ids": list(table.heap._page_ids),
            "heap_tuple_count": table.heap._tuple_count,
            "heap_free_slots": [
                (tid.page_id, tid.slot) for tid in table.heap._free_slots
            ],
            "distinct": dict(table._distinct_counts),
            "index_root": index.structure.root,
            "index_item_count": index.structure._item_count,
            "index_page_ids": list(store.page_ids),
            "index_num_nodes": store.num_nodes,
            "index_open_page_id": store._open_page_id,
            # The transaction manager's shippable state: xid counter plus
            # every closed clog verdict. In-flight transactions never ship,
            # so a standby revived from this meta exposes exactly the
            # committed snapshots — no dirty reads across failover.
            "txn": self.txn.state_snapshot(),
        }
        self.disk.write_page(META_PAGE_ID, meta)

    def _revive_from_meta(self) -> None:
        """Rebuild the engine's in-memory bookkeeping from page 0.

        The inverse of :meth:`_write_meta`: heap and node pages are already
        in the (replicated or recovered) page file; only the Python-object
        state that points into them needs restoring. Pool pages from before
        the refresh were dropped by the caller.
        """
        meta = self.disk.read_page(META_PAGE_ID)
        if not isinstance(meta, dict) or "commit_seq" not in meta:
            raise ReplicationError(
                f"node {self.name}: meta page is not an engine snapshot"
            )
        if meta["kind"] != self.kind:
            raise ReplicationError(
                f"node {self.name}: data directory holds a {meta['kind']!r} "
                f"schema, not {self.kind!r}"
            )
        table = self.table
        assert table is not None
        table.heap._page_ids = list(meta["heap_page_ids"])
        table.heap._page_id_set = set(meta["heap_page_ids"])
        table.heap._tuple_count = meta["heap_tuple_count"]
        free_slots = [
            TupleId(page_id, slot)
            for page_id, slot in meta.get("heap_free_slots", ())
        ]
        table.heap._free_slots = free_slots
        table.heap._free_slot_set = set(free_slots)
        table._distinct_counts = dict(meta["distinct"])
        txn_state = meta.get("txn")
        if txn_state is not None:
            self.txn.load_state(txn_state)
        index = table.indexes[_INDEX_NAME]
        structure = index.structure
        structure.root = meta["index_root"]
        structure._item_count = meta["index_item_count"]
        store = structure.store
        store.page_ids = list(meta["index_page_ids"])
        store.num_nodes = meta["index_num_nodes"]
        store._open_page_id = meta["index_open_page_id"]
        index.quarantined = False

    @property
    def meta_commit_seq(self) -> int:
        """The commit sequence recorded in the on-disk meta page."""
        meta = self.disk.read_page(META_PAGE_ID)
        return meta["commit_seq"]

    # -- primary: commit and ship ---------------------------------------------

    def _attach_listener(self) -> None:
        if self._listener is not None or self.disk.wal is None:
            return
        self._listener = self.disk.wal.add_commit_listener(self._on_commit)

    def _on_commit(self, payload: bytes, start_lsn: int, end_lsn: int) -> None:
        if self.commit_seq <= self.archive_floor + len(self.archive):
            # A sync not driven by commit() (basebackup checkpoint, close):
            # the records are already covered by an archived segment or by
            # the checkpointed files; nothing new to ship.
            return
        segment = WALSegment(
            seq=self.commit_seq,
            start_lsn=start_lsn,
            end_lsn=end_lsn,
            payload=payload,
        )
        self.archive.append(segment)
        self.outbox.append(segment)
        _SEGMENTS_SHIPPED.inc()

    def commit(self) -> int:
        """Commit all engine mutations since the last commit; frame a segment.

        The write path of a primary: snapshot the engine into the meta
        page, flush dirty pages (each logs a full page image), then
        ``disk.sync()`` — whose WAL commit fires the listener that frames
        this commit's records into the segment placed in :attr:`outbox`.
        Returns the new commit sequence number.
        """
        self._require_alive()
        if self.role != "primary":
            raise ReplicationError(f"node {self.name} is a standby; no commits")
        self.commit_seq += 1
        self._write_meta()
        self.pool.flush_all()
        # Transactions committed since the last WAL commit ride inside the
        # commit marker, so standby replay can apply the clog verdicts in
        # the same step that applies the pages.
        self.disk.sync(commit_xids=tuple(self.txn.drain_recent_commits()))
        return self.commit_seq

    def write_rows(self, rows: list[tuple], abort: bool = False) -> None:
        """Apply ``rows`` under one transaction (committed or rolled back).

        With ``abort=True`` the transaction is rolled back after the
        inserts: the versions (and their index entries) still exist on
        disk and replicate to standbys, but their xmin is aborted in the
        clog, so no snapshot anywhere ever sees them — the dirty-read
        probe the chaos harness leans on. The caller drives
        :meth:`commit` to make the outcome durable and shippable.
        """
        self._require_alive()
        if self.role != "primary":
            raise ReplicationError(f"node {self.name} is a standby; no writes")
        assert self.table is not None
        txn = self.txn.begin()
        if rows:
            self.table.insert_many(rows, txn=txn)
        if abort:
            self.txn.abort(txn)
        else:
            self.txn.commit(txn)

    def vacuum(self) -> VacuumStats:
        """Run a table VACUUM on this primary (caller commits afterwards)."""
        self._require_alive()
        if self.role != "primary":
            raise ReplicationError(f"node {self.name} is a standby; no vacuum")
        assert self.table is not None
        return self.table.vacuum()

    def repack_index(self, max_subtrees: int | None = None) -> Any:
        """Online-repack this primary's SP-GiST index (caller commits).

        Returns :class:`repro.core.tree.OnlineRepackStats`. The repack
        mutates index pages through the buffer pool, so the following
        :meth:`commit` ships the rewritten extent to standbys as ordinary
        full page images — the same WAL protocol as any write.
        """
        self._require_alive()
        if self.role != "primary":
            raise ReplicationError(f"node {self.name} is a standby; no repack")
        assert self.table is not None
        index = self.table.indexes[_INDEX_NAME]
        return index.structure.repack_online(max_subtrees=max_subtrees)

    def segments_since(self, seq: int) -> list[WALSegment]:
        """Archived segments with sequence numbers above ``seq``.

        Raises :class:`ReplicaDivergedError` when the archive has been
        pruned past ``seq`` — the requester must take a full resync.
        """
        if seq < self.archive_floor:
            raise ReplicaDivergedError(
                f"segment {seq + 1} is below node {self.name}'s archive floor "
                f"{self.archive_floor + 1}; full resync required"
            )
        return [segment for segment in self.archive if segment.seq > seq]

    # -- standby: apply -------------------------------------------------------

    def apply_segment(self, segment: WALSegment) -> str:
        """Apply one shipped segment; returns what happened.

        ``"applied"`` — the segment (and any buffered successors) replayed;
        ``"duplicate"`` — seq already applied, ignored; ``"buffered"`` —
        ahead of the next expected seq, held until the gap closes.
        """
        self._require_alive()
        if self.role != "standby":
            raise ReplicationError(f"node {self.name} is not a standby")
        if segment.seq <= self.applied_seq:
            _SEGMENTS_DUPLICATE.inc()
            return "duplicate"
        if segment.seq > self.applied_seq + 1:
            self._pending[segment.seq] = segment
            _SEGMENTS_BUFFERED.inc()
            return "buffered"
        self._apply_now(segment)
        while self.applied_seq + 1 in self._pending:
            self._apply_now(self._pending.pop(self.applied_seq + 1))
        return "applied"

    def _apply_now(self, segment: WALSegment) -> None:
        # Sequence contiguity (checked by the caller) guarantees no shipped
        # segment was skipped; the LSN check additionally rejects overlap —
        # a segment from a stale timeline. A forward LSN gap is legitimate:
        # checkpoint-only commits (basebackups, clean closes) consume a
        # commit-marker LSN without shipping a segment.
        if segment.start_lsn <= self.applied_lsn:
            self.needs_resync = True
            raise ReplicaDivergedError(
                f"node {self.name}: segment {segment.seq} starts at LSN "
                f"{segment.start_lsn}, already applied through "
                f"{self.applied_lsn}"
            )
        for record in segment.records():
            if record.rec_type == REC_COMMIT:
                # Commit records carry the xids they made durable; apply
                # their verdicts so the standby's clog tracks the stream
                # even before the meta-page refresh lands.
                for xid in record.xids:
                    self.txn.clog.set_committed(xid)
                continue
            self.disk.apply_record(record)
        self.disk.sync()
        self.applied_seq = segment.seq
        self.applied_lsn = segment.end_lsn
        _SEGMENTS_APPLIED.inc()
        self._refresh_engine()

    def _refresh_engine(self) -> None:
        """Re-read the engine state after new pages landed on disk."""
        self.pool.clear()  # drop frames the applied pages superseded
        self._revive_from_meta()

    @property
    def pending_count(self) -> int:
        """Out-of-order segments currently buffered."""
        return len(self._pending)

    # -- promotion ------------------------------------------------------------

    def promote(self) -> None:
        """Turn this standby into the primary, truncating divergence.

        Buffered out-of-order segments — records beyond the last applied
        commit — are discarded (the replication analogue of truncating a
        diverged WAL tail at timeline switch), a fresh local WAL is
        attached with its LSN floor above everything applied, and segment
        numbering continues from the applied commit sequence.
        """
        self._require_alive()
        if self.role == "primary":
            return
        if self._pending:
            _DIVERGENCE_TRUNCATIONS.inc(len(self._pending))
            self._pending.clear()
        wal = self.disk.enable_wal()
        wal.ensure_lsn_at_least(self.applied_lsn)
        self.role = "primary"
        self.commit_seq = self.applied_seq
        self.archive = []
        self.archive_floor = self.applied_seq
        self.outbox = []
        self._attach_listener()

    # -- crash / restart / resync ---------------------------------------------

    def crash(self, seed: int | None = None) -> None:
        """Kill the node: tear unsynced file tails, drop all memory state."""
        if self.crashed:
            return
        self.disk.simulate_crash(seed=seed)
        self.crashed = True
        self.outbox = []
        self._pending.clear()

    def restart(self) -> None:
        """Reopen a crashed node's data directory in its previous role.

        A primary runs WAL crash recovery (committed records replayed,
        uncommitted tail discarded) and resumes committing; its in-memory
        segment archive is gone, so standbys needing old segments must
        full-resync. A standby reopens from its last applied checkpoint.
        """
        if not self.crashed:
            raise ReplicationError(f"node {self.name} is not crashed")
        use_wal = self.role == "primary"
        self.disk = FileDiskManager(self.path, use_wal=use_wal, fsync=self.fsync)
        self.pool = BufferPool(self.disk, capacity=self.pool_pages)
        self.crashed = False
        self._listener = None
        self._pending.clear()
        self._build_engine()
        if self.role == "primary":
            # Recovery may have rolled back past unshipped commits; the
            # meta page says which commit the files actually represent.
            self.commit_seq = self.meta_commit_seq
            self.archive = []
            self.archive_floor = self.commit_seq
            self.outbox = []
            self._attach_listener()
        else:
            self.applied_seq = self.meta_commit_seq
            self.applied_lsn = self.disk.map_lsn

    def full_resync(self, primary: "StorageNode") -> None:
        """Re-seed this node from a fresh basebackup of ``primary``.

        The recovery path for a node whose timeline diverged (an old
        primary rejoining after failover) or whose gap fell below the
        primary's archive floor — the reproduction's ``pg_rewind``.
        """
        primary._require_alive()
        if self.crashed:
            raise ReplicationError(f"restart node {self.name} before resync")
        position = self.commit_seq if self.role == "primary" else self.applied_seq
        if position > primary.commit_seq:
            # This node holds commits the new primary never had (they were
            # never acknowledged): the rejoining side truncates them away.
            _DIVERGENCE_TRUNCATIONS.inc(position - primary.commit_seq)
        primary.pool.flush_all()
        primary.disk.sync()
        self.disk.close()
        for suffix in ("", ".map"):
            shutil.copyfile(primary.path + suffix, self.path + suffix)
        wal_path = self.path + ".wal"
        if os.path.exists(wal_path):
            os.remove(wal_path)  # divergent local history: truncated away
        self.role = "standby"
        self.disk = FileDiskManager(self.path, use_wal=False, fsync=self.fsync)
        self.pool = BufferPool(self.disk, capacity=self.pool_pages)
        self._listener = None
        self._pending.clear()
        self.needs_resync = False
        self.applied_seq = primary.commit_seq
        self.applied_lsn = primary.disk.map_lsn
        self._build_engine()

    def close(self) -> None:
        """Cleanly shut the node down (no-op when crashed)."""
        if self.crashed:
            return
        if self.disk.wal is not None and self._listener is not None:
            self.disk.wal.remove_commit_listener(self._listener)
            self._listener = None
        self.disk.close()
        self.crashed = True

    def _require_alive(self) -> None:
        if self.crashed:
            raise ReplicationError(f"node {self.name} is crashed")

    # -- reads ----------------------------------------------------------------

    def rows(self) -> list[tuple]:
        """Every live row, in heap order (the logical-equivalence probe)."""
        self._require_alive()
        assert self.table is not None
        return [row for _tid, row in self.table.scan()]

    def search(self, op: str, operand: Any) -> Iterator[tuple]:
        """Run ``key <op> operand`` through the planner and executor."""
        from repro.engine.executor import execute_plan
        from repro.engine.planner import Predicate, plan_query

        self._require_alive()
        assert self.table is not None
        plan = plan_query(self.table, Predicate("key", op, operand))
        plan.served_by = self.name
        return execute_plan(plan)

    @property
    def index(self) -> Any:
        """The node's SP-GiST index structure (for ``spgist_check``)."""
        assert self.table is not None
        return self.table.indexes[_INDEX_NAME].structure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "crashed" if self.crashed else self.role
        position = (
            f"commit_seq={self.commit_seq}"
            if self.role == "primary"
            else f"applied_seq={self.applied_seq}"
        )
        return f"<StorageNode {self.name} {status} {position}>"
