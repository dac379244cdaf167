"""Write-ahead log for the file-backed disk manager.

Crash-safety protocol (textbook redo logging, the shape PostgreSQL uses):

- Every mutation of the page store appends one WAL record *before* the data
  file is touched: full page images for writes, allocation/deallocation
  markers for the allocator.
- ``commit()`` appends a commit marker and fsyncs — everything up to that
  marker is durable. Records after the last commit marker are uncommitted
  and are discarded by recovery.
- **Group commit**: with ``group_commit=True`` (the default) appended
  records accumulate in an in-memory buffer and reach the file in one
  write per commit boundary (or when the buffer passes
  ``flush_threshold`` bytes), instead of one seek+write syscall pair per
  record. This changes nothing about durability — uncommitted records
  were never durable (a crash could always lose them, fsync only happens
  at ``commit()``) — it only batches the file appends inside the existing
  loss window. Recovery and kill-anywhere semantics are byte-identical.
- Each record carries a monotonically increasing LSN plus a CRC32 over its
  body. Recovery replays committed records whose LSN is newer than the
  page-table snapshot and stops at the first torn/invalid record, so a
  crash (or injected truncation) at *any* byte boundary leaves a
  recoverable log.
- **Shipping**: commit listeners registered with :meth:`add_commit_listener`
  receive the raw record bytes each commit made durable, which is exactly
  the unit PostgreSQL ships to physical standbys. The replication layer
  (:mod:`repro.replication`) frames those bytes into
  :class:`~repro.replication.segments.WALSegment` objects.

Record wire format::

    header := <type:u8> <body_len:u32> <lsn:u64> <crc32(body):u32>   (17 bytes)
    PAGE_IMAGE body := <page_id:i64> <encoded page image bytes>
    ALLOC/DEALLOC body := <page_id:i64>
    COMMIT body := (empty) | <count:u32> <xid:u64>*

A commit marker may carry the transaction ids it made durable (PostgreSQL's
commit records name their xid the same way); an empty body means "no
transactional writes" and keeps old logs replayable unchanged. Standbys
apply the xids to their commit log so a promoted node exposes exactly the
committed snapshots.

Decoding is shared: :class:`ReplayCursor` walks any byte string of records
(the log file during recovery, a shipped segment payload on a standby) and
treats a trailing torn/partial record as a clean, *counted* end of stream
— truncate-and-warn, never an exception.
"""

from __future__ import annotations

import os
import random
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Iterator

from repro.obs import METRICS
from repro.settings import SETTINGS

_WAL_RECORDS = METRICS.counter(
    "wal_records_total", "Records appended to any write-ahead log"
)
_WAL_BYTES = METRICS.counter(
    "wal_bytes_total", "Bytes appended to any write-ahead log"
)
_WAL_COMMITS = METRICS.counter(
    "wal_commits_total", "WAL commit markers forced to stable storage"
)
_WAL_REPLAYED = METRICS.counter(
    "wal_records_replayed_total", "Committed WAL records replayed by recovery"
)
_WAL_GROUP_FLUSHES = METRICS.counter(
    "wal_group_flushes_total",
    "Buffered record batches written to the log file (group commit)",
)
_WAL_TORN_TAILS = METRICS.counter(
    "wal_torn_tails_total",
    "Torn/partial trailing records truncated (and warned about) by replay",
)

_HEADER = struct.Struct("<BIQI")
_PAGE_ID = struct.Struct("<q")
_XID_COUNT = struct.Struct("<I")
_XID = struct.Struct("<Q")

#: Record types.
REC_PAGE_IMAGE = 1
REC_ALLOC = 2
REC_DEALLOC = 3
REC_COMMIT = 4

_KNOWN_TYPES = frozenset(
    (REC_PAGE_IMAGE, REC_ALLOC, REC_DEALLOC, REC_COMMIT)
)


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record."""

    lsn: int
    rec_type: int
    page_id: int | None
    image: bytes | None
    #: For COMMIT records: the transaction ids this commit made durable.
    xids: tuple[int, ...] = ()


@dataclass
class WALStats:
    """Cumulative write-ahead-log activity counters."""

    records_appended: int = 0
    bytes_appended: int = 0
    commits: int = 0
    records_replayed: int = 0
    torn_tail_discarded: int = 0
    group_flushes: int = 0  # buffered batches written to the file


class ReplayCursor:
    """Decode a byte string of WAL records, tolerating a torn tail.

    The single decoder behind crash recovery (:meth:`WriteAheadLog.scan`)
    and standby replay (:meth:`repro.replication.segments.WALSegment.records`).
    Iteration yields every well-formed record — commit markers included —
    in log order, then stops at the first truncated or corrupt record.
    That stop is a *finding*, not an error: ``torn`` flips to True, the
    partial record is truncated away, one warning incident is recorded
    (kind ``wal-torn-tail``) and the ``wal_torn_tails_total`` metric is
    incremented. This is what lets a segment that ends mid-record — a
    crash during an append, an injected truncation — replay its complete
    prefix instead of poisoning recovery.
    """

    def __init__(self, raw: bytes, start_lsn: int = 0, origin: str = "wal") -> None:
        self.raw = raw
        self.offset = 0
        self.last_lsn = start_lsn
        self.origin = origin  # names the log in the torn-tail warning
        self.torn = False
        self._exhausted = False

    def _mark_torn(self) -> None:
        self.torn = True
        _WAL_TORN_TAILS.inc()
        from repro.resilience.incidents import INCIDENTS

        INCIDENTS.record(
            "wal-torn-tail",
            self.origin,
            WALTornTailWarning(
                f"truncated partial record at byte {self.offset} "
                f"of {len(self.raw)} (last good lsn {self.last_lsn})"
            ),
        )

    def __iter__(self) -> Iterator[WALRecord]:
        raw = self.raw
        while self.offset + _HEADER.size <= len(raw):
            rec_type, body_len, lsn, crc = _HEADER.unpack_from(raw, self.offset)
            body_start = self.offset + _HEADER.size
            body_end = body_start + body_len
            if (
                rec_type not in _KNOWN_TYPES
                or lsn <= self.last_lsn
                or body_end > len(raw)
            ):
                self._mark_torn()
                return
            body = raw[body_start:body_end]
            if zlib.crc32(body) != crc:
                self._mark_torn()
                return
            if rec_type != REC_COMMIT and body_len < _PAGE_ID.size:
                # A record that should carry a page id but is too short to
                # hold one: treat as a torn tail (truncate-and-warn), not a
                # hard error — everything before it already replayed.
                self._mark_torn()
                return
            self.last_lsn = lsn
            self.offset = body_end
            if rec_type == REC_COMMIT:
                xids = _decode_commit_body(body)
                if xids is None:  # malformed xid payload: a torn tail
                    self._mark_torn()
                    return
                yield WALRecord(lsn, rec_type, None, None, xids=xids)
            elif rec_type == REC_PAGE_IMAGE:
                (page_id,) = _PAGE_ID.unpack_from(body)
                yield WALRecord(lsn, rec_type, page_id, body[_PAGE_ID.size:])
            else:
                (page_id,) = _PAGE_ID.unpack_from(body)
                yield WALRecord(lsn, rec_type, page_id, None)
        self._exhausted = True
        if self.offset < len(raw):
            # Trailing bytes too short to even hold a header.
            self._mark_torn()


def _decode_commit_body(body: bytes) -> tuple[int, ...] | None:
    """The xids of a COMMIT body; () when empty, None when malformed."""
    if not body:
        return ()
    if len(body) < _XID_COUNT.size:
        return None
    (count,) = _XID_COUNT.unpack_from(body)
    if len(body) != _XID_COUNT.size + count * _XID.size:
        return None
    return tuple(
        _XID.unpack_from(body, _XID_COUNT.size + i * _XID.size)[0]
        for i in range(count)
    )


class WALTornTailWarning(Warning):
    """Carried inside the ``wal-torn-tail`` incident: a truncated record."""


class WriteAheadLog:
    """An append-only redo log backing one :class:`FileDiskManager`.

    The log is a sidecar file (``<data path>.wal``). It is truncated at
    every checkpoint (the page-table write in ``sync()``), so it only ever
    holds the records since the last durable snapshot.
    """

    def __init__(
        self,
        path: str,
        group_commit: bool = True,
        flush_threshold: int | None = None,
        fsync: bool = True,
    ) -> None:
        self.path = path
        self.stats = WALStats()
        self.group_commit = group_commit
        # Group-commit flush threshold: buffered records are written to
        # the file once they pass this many bytes, bounding memory while
        # keeping the common commit interval to a single batched write.
        # The default lives in repro.settings (wal_flush_threshold).
        self.flush_threshold = (
            SETTINGS.wal_flush_threshold
            if flush_threshold is None
            else flush_threshold
        )
        #: With ``fsync=False`` commits stop at the OS page cache (test
        #: harnesses that simulate crashes by truncation, where a real
        #: fsync would only add milliseconds); durability bookkeeping —
        #: ``synced_size``, tear points, shipping — is unchanged.
        self.fsync = fsync
        mode = "r+b" if os.path.exists(path) else "w+b"
        self._file = open(path, mode)
        self._next_lsn = 1
        self.last_commit_lsn = 0
        self._buffer = bytearray()  # records awaiting a group flush
        self._synced_size = self._file.seek(0, os.SEEK_END)
        # Shipping state: byte offset / LSN up to which commit listeners
        # have already been handed the log, so each commit captures exactly
        # the records it made durable.
        self._commit_listeners: list[Callable[[bytes, int, int], None]] = []
        self._capture_offset = self._synced_size
        self._capture_lsn = 0

    def _fsync(self) -> None:
        if self.fsync:
            os.fsync(self._file.fileno())

    # -- appending ----------------------------------------------------------

    def _append(self, rec_type: int, body: bytes) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        record = _HEADER.pack(rec_type, len(body), lsn, zlib.crc32(body)) + body
        if self.group_commit:
            self._buffer += record
            if len(self._buffer) >= self.flush_threshold:
                self.flush()
        else:
            self._file.seek(0, os.SEEK_END)
            self._file.write(record)
        self.stats.records_appended += 1
        self.stats.bytes_appended += len(record)
        _WAL_RECORDS.inc()
        _WAL_BYTES.inc(len(record))
        return lsn

    def flush(self) -> None:
        """Write buffered records to the log file (no fsync).

        A no-op without buffered records. Called automatically at commit
        boundaries and when the buffer passes ``flush_threshold`` bytes.
        """
        if not self._buffer:
            return
        self._file.seek(0, os.SEEK_END)
        self._file.write(self._buffer)
        self._file.flush()  # to the OS, not to stable storage (no fsync)
        self._buffer.clear()
        self.stats.group_flushes += 1
        _WAL_GROUP_FLUSHES.inc()

    @property
    def buffered_bytes(self) -> int:
        """Record bytes appended but not yet written to the file."""
        return len(self._buffer)

    def log_page_image(self, page_id: int, image: bytes) -> int:
        """Append a full-page-image record (before the data-file write)."""
        return self._append(REC_PAGE_IMAGE, _PAGE_ID.pack(page_id) + image)

    def log_alloc(self, page_id: int) -> int:
        """Append a page-allocation record."""
        return self._append(REC_ALLOC, _PAGE_ID.pack(page_id))

    def log_dealloc(self, page_id: int) -> int:
        """Append a page-deallocation record."""
        return self._append(REC_DEALLOC, _PAGE_ID.pack(page_id))

    def commit(self, xids: tuple[int, ...] | list[int] = ()) -> int:
        """Append a commit marker and force the log to stable storage.

        ``xids`` names the transactions this commit makes durable; they
        ride inside the marker so standbys can update their commit log in
        the same replay step that applies the pages. Returns the marker's
        LSN: every record at or below it is durable. Commit listeners then
        receive the raw bytes this commit made durable — the shippable
        unit for physical replication.
        """
        body = b""
        if xids:
            body = _XID_COUNT.pack(len(xids)) + b"".join(
                _XID.pack(xid) for xid in xids
            )
        lsn = self._append(REC_COMMIT, body)
        self.flush()
        self._file.flush()
        self._fsync()
        self._synced_size = self._file.seek(0, os.SEEK_END)
        self.stats.commits += 1
        self.last_commit_lsn = lsn
        _WAL_COMMITS.inc()
        if self._commit_listeners:
            self._file.seek(self._capture_offset)
            payload = self._file.read()
            start_lsn = self._capture_lsn + 1
            self._capture_offset = self._file.seek(0, os.SEEK_END)
            self._capture_lsn = lsn
            for listener in list(self._commit_listeners):
                listener(payload, start_lsn, lsn)
        return lsn

    # -- shipping (physical replication) -------------------------------------

    def add_commit_listener(
        self, listener: Callable[[bytes, int, int], None]
    ) -> Callable[[bytes, int, int], None]:
        """Call ``listener(raw_records, start_lsn, commit_lsn)`` per commit.

        Capture starts at the durable end of the log as of registration:
        history already checkpointed into the page table is transferred by
        base backup, not by the stream (exactly PostgreSQL's split between
        ``pg_basebackup`` and WAL shipping). Returns the listener handle.
        """
        self.flush()  # buffered records must be in the file, behind the mark
        self._capture_offset = self._file.seek(0, os.SEEK_END)
        self._capture_lsn = self._next_lsn - 1
        self._commit_listeners.append(listener)
        return listener

    def remove_commit_listener(
        self, listener: Callable[[bytes, int, int], None]
    ) -> None:
        """Detach a listener registered with :meth:`add_commit_listener`."""
        try:
            self._commit_listeners.remove(listener)
        except ValueError:
            pass

    # -- recovery ------------------------------------------------------------

    def scan(self) -> tuple[list[WALRecord], int]:
        """Decode the log from the start; tolerate a torn tail.

        Returns ``(committed_records, last_commit_lsn)`` where
        ``committed_records`` contains only non-commit records covered by a
        commit marker. Decoding stops (without error) at the first
        truncated or corrupt record — that is the crash point; everything
        after it never committed. A corrupt record *before* a commit marker
        simply means the marker is unreachable, so the tail is discarded
        exactly as redo logging requires.
        """
        self.flush()  # scan sees every appended record, buffered or not
        self._file.seek(0)
        raw = self._file.read()
        cursor = ReplayCursor(raw, origin=self.path)
        records: list[WALRecord] = []
        pending: list[WALRecord] = []
        last_commit_lsn = 0
        for record in cursor:
            if record.rec_type == REC_COMMIT:
                records.extend(pending)
                pending.clear()
                last_commit_lsn = record.lsn
            else:
                pending.append(record)
        if pending or cursor.torn:
            self.stats.torn_tail_discarded += 1
        self._next_lsn = max(self._next_lsn, cursor.last_lsn + 1)
        self.last_commit_lsn = max(self.last_commit_lsn, last_commit_lsn)
        return records, last_commit_lsn

    def note_replayed(self, n: int) -> None:
        """Account ``n`` committed records replayed by crash recovery."""
        self.stats.records_replayed += n
        _WAL_REPLAYED.inc(n)

    def ensure_lsn_at_least(self, lsn: int) -> None:
        """Never issue LSNs at or below ``lsn`` (the page table's snapshot).

        Called after recovery so records appended into a truncated log sort
        strictly after everything an existing page-table snapshot covers.
        """
        self._next_lsn = max(self._next_lsn, lsn + 1)

    # -- checkpointing -------------------------------------------------------

    def reset(self) -> None:
        """Discard all records (checkpoint reached: the page table has them).

        LSNs keep increasing across resets so a stale page-table snapshot
        can never mistake old records for new ones.
        """
        self._buffer.clear()  # buffered records are covered by the snapshot
        self._file.seek(0)
        self._file.truncate()
        self._file.flush()
        self._fsync()
        self._synced_size = 0
        self._capture_offset = 0  # capture LSN keeps increasing, offsets reset

    # -- lifecycle ----------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Logical byte length of the log (on-disk plus buffered records)."""
        return self._file.seek(0, os.SEEK_END) + len(self._buffer)

    @property
    def synced_size(self) -> int:
        """Byte length covered by the last fsync (commit)."""
        return self._synced_size

    def tear_tail(self, rng: random.Random) -> None:
        """Crash simulation: truncate the unsynced tail at a random byte.

        Fsync'd bytes always survive; anything after the last commit may be
        partially lost — including mid-record, which recovery must treat as
        a clean end of log. Buffered (never-written) records vanish
        entirely, exactly as a real crash would lose them.
        """
        self._buffer.clear()
        size = self._file.seek(0, os.SEEK_END)
        keep = rng.randint(min(self._synced_size, size), size)
        self._file.truncate(keep)
        self._file.close()

    def close(self) -> None:
        """Close the log file handle (no implicit commit).

        Buffered records are written (not fsync'd) first, matching the
        write-through mode's behaviour where every append had already
        reached the (unsynced) file by close time.
        """
        self.flush()
        self._file.close()
