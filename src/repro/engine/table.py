"""Heap-backed tables with catalog-driven secondary indexes.

A :class:`Table` stores rows (tuples) in a :class:`HeapFile` and maintains
any number of indexes created through operator classes, exactly like the
paper's Table 6 DDL::

    CREATE TABLE word_data (name VARCHAR(50), id INT);
    CREATE INDEX sp_trie_index ON word_data
        USING SP_GiST (name SP_GiST_trie);

Index rows carry heap TupleIds as values; scans return TIDs which the
executor resolves back to rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator

from repro.engine.catalog import SystemCatalog
from repro.engine.cost import CostEstimate, cost_estimator
from repro.engine.opclass import NN_STRATEGY, OperatorClass
from repro.engine.selectivity import TableStats
from repro.engine.txn import (
    Snapshot,
    Transaction,
    TransactionManager,
    XID_FROZEN,
)
from repro.errors import CatalogError, PlannerError
from repro.obs import METRICS
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile, TupleId

_VACUUM_RUNS = METRICS.counter(
    "vacuum_runs_total", "Table-level VACUUM passes completed"
)
_VACUUM_VERSIONS = METRICS.counter(
    "vacuum_versions_pruned_total",
    "Dead heap tuple versions reclaimed by VACUUM",
)
_VACUUM_INDEX_ENTRIES = METRICS.counter(
    "vacuum_index_entries_pruned_total",
    "Index entries removed for dead heap versions",
)
_VACUUM_PAGES_TRUNCATED = METRICS.counter(
    "vacuum_pages_truncated_total",
    "Trailing all-empty heap pages released by VACUUM",
)


@dataclass(frozen=True)
class Column:
    """One table column: a name and a catalog type name."""

    name: str
    type_name: str  # "varchar", "int", "float", "point", "lseg"


class TableIndex:
    """One secondary index over one column of a table.

    The catalog builds the structure behind it from the access method's
    ``pg_am`` row; it is called without knowing its class (the contract is
    listed in DESIGN.md §2, "Adding an access method").
    """

    def __init__(
        self,
        name: str,
        table: "Table",
        column: Column,
        column_index: int,
        opclass: OperatorClass,
        **opclass_kwargs: Any,
    ) -> None:
        self.name = name
        self.table = table
        self.column = column
        self.column_index = column_index
        self.opclass = opclass
        self.access_method = opclass.access_method.lower()
        self.key_extractor = opclass.key_extractor
        catalog = table.catalog
        self.structure = catalog.index_structure(
            opclass, table.buffer, name, **opclass_kwargs
        )
        self._cost_estimate = cost_estimator(
            catalog.access_method(opclass.access_method).amcostestimate
        )
        #: Set by the executor when a scan hit corruption in this index;
        #: the planner stops choosing quarantined indexes until the flag is
        #: cleared (e.g. after a REINDEX-style rebuild).
        self.quarantined = False

    # -- maintenance ------------------------------------------------------------

    def _keys_of(self, value: Any) -> list[Any]:
        if self.key_extractor is None:
            return [value]
        return list(self.key_extractor(value))

    def entries(
        self, pairs: Iterable[tuple[TupleId, tuple]]
    ) -> Iterator[tuple[Any, TupleId]]:
        """The ``(key, tid)`` index entries of heap rows, lazily."""
        for tid, row in pairs:
            for key in self._keys_of(row[self.column_index]):
                yield key, tid

    def insert_row(self, tid: TupleId, row: tuple) -> None:
        """Index the column value(s) of one new heap row."""
        value = row[self.column_index]
        for key in self._keys_of(value):
            self.structure.insert(key, tid)

    def insert_rows(self, pairs: list[tuple[TupleId, tuple]]) -> None:
        """Index a batch of new heap rows in one structure call."""
        self.structure.insert_many(list(self.entries(pairs)))

    def bulk_delete_rows(self, dead: list[tuple[TupleId, tuple]]) -> int:
        """Remove every entry pointing at a dead row (``ambulkdelete``).

        The structure gets the whole dead list at once, as PostgreSQL
        hands the dead-TID list to the access method during VACUUM.
        Returns the number of logical entries removed.
        """
        if not dead:
            return 0
        return self.structure.delete_entries([
            (key, tid)
            for tid, row in dead
            for key in set(self._keys_of(row[self.column_index]))
        ])

    # -- scans -----------------------------------------------------------------------

    def supports(self, op_name: str) -> bool:
        """Can this index serve ``op_name`` (is it in the opclass)?"""
        return self.opclass.supports_operator(op_name)

    def supports_nn(self) -> bool:
        """Can this index stream results by distance (operator @@)?"""
        return NN_STRATEGY in self.opclass.operators and self.structure.supports_nn

    def scan(self, op_name: str, operand: Any) -> Iterator[TupleId]:
        """TIDs of rows whose indexed value satisfies ``col <op> operand``."""
        return self.structure.scan(op_name, operand)

    def nn_scan(self, operand: Any) -> Iterator[TupleId]:
        """TIDs in non-decreasing distance from ``operand`` (operator @@)."""
        if not self.supports_nn():
            raise PlannerError(f"index {self.name} does not support NN search")
        seen: set[TupleId] = set()
        for _distance, _key, tid in self.structure.nn_search(operand):
            if tid not in seen:
                seen.add(tid)
                yield tid

    # -- costing ----------------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return self.structure.num_pages

    @property
    def page_height(self) -> int:
        return self.structure.page_height

    def cost(
        self, stats: TableStats, heap_pages: int, restrict: str, op: str,
        operand: Any,
    ) -> CostEstimate:
        """This index's ``amcostestimate`` for ``col <op> operand``."""
        return self._cost_estimate(self.num_pages, self.page_height, stats,
                                   heap_pages, restrict, operand, op=op)


@dataclass(frozen=True)
class VacuumStats:
    """What one VACUUM pass reclaimed (the ``VACUUM VERBOSE`` analogue)."""

    versions_pruned: int
    index_entries_pruned: int
    pages_truncated: int
    pages: int
    pages_needed: int


class Table:
    """A named heap relation with typed columns and secondary indexes."""

    def __init__(
        self,
        name: str,
        columns: list[Column],
        buffer: BufferPool,
        catalog: SystemCatalog,
        txn: TransactionManager | None = None,
    ) -> None:
        self.name = name
        self.columns = columns
        self.buffer = buffer
        self.catalog = catalog
        #: The cluster's transaction manager. ``None`` keeps the table
        #: single-version and append-only (every tuple frozen; deletes and
        #: updates need a manager); with one attached, scans and fetches
        #: filter by snapshot visibility.
        self.txn = txn
        self.heap = HeapFile(buffer)
        self.indexes: dict[str, TableIndex] = {}
        self._column_positions = {col.name: i for i, col in enumerate(columns)}
        self._distinct_counts: dict[str, int] = {}

    # -- schema ------------------------------------------------------------------

    def column_index(self, column_name: str) -> int:
        """Position of ``column_name`` in this table's rows."""
        try:
            return self._column_positions[column_name]
        except KeyError:
            raise CatalogError(
                f"table {self.name} has no column {column_name!r}"
            ) from None

    def column(self, column_name: str) -> Column:
        """The Column object for ``column_name``."""
        return self.columns[self.column_index(column_name)]

    def create_index(
        self,
        index_name: str,
        column_name: str,
        using: str = "SP_GiST",
        opclass_name: str | None = None,
        **opclass_kwargs: Any,
    ) -> TableIndex:
        """CREATE INDEX: build over existing rows (the ``ambuild`` routine)."""
        if index_name in self.indexes:
            raise CatalogError(f"index {index_name!r} already exists")
        column_index = self.column_index(column_name)
        column = self.columns[column_index]
        if opclass_name is not None:
            opclass = self.catalog.opclass(opclass_name)
        else:
            opclass = self.catalog.default_opclass(using, column.type_name)
        if opclass.access_method.lower() != using.lower():
            raise CatalogError(
                f"operator class {opclass.name} belongs to access method "
                f"{opclass.access_method}, not {using}"
            )
        if opclass.for_type != column.type_name:
            raise CatalogError(
                f"operator class {opclass.name} is for type "
                f"{opclass.for_type}, but column {column_name} is "
                f"{column.type_name}"
            )
        index = TableIndex(
            index_name, self, column, column_index, opclass, **opclass_kwargs
        )
        index.structure.build(index.entries(self.heap.scan()))
        self.indexes[index_name] = index
        return index

    def drop_index(self, index_name: str) -> None:
        """DROP INDEX: detach and forget the named index."""
        if index_name not in self.indexes:
            raise CatalogError(f"index {index_name!r} does not exist")
        del self.indexes[index_name]

    # -- DML ----------------------------------------------------------------------------

    def insert(self, row: tuple, txn: Transaction | None = None) -> TupleId:
        """Insert one row into the heap and every index.

        With ``txn``, the new version carries the transaction's xid as
        ``xmin`` — invisible to other snapshots until the commit verdict
        lands in the clog. Index entries are created immediately (index
        entries point at all versions; readers filter by visibility).
        """
        if len(row) != len(self.columns):
            raise ValueError(
                f"row arity {len(row)} != table arity {len(self.columns)}"
            )
        tid = self.heap.insert(row, xmin=txn.xid if txn else XID_FROZEN)
        for index in self.indexes.values():
            index.insert_row(tid, row)
        return tid

    def insert_many(
        self, rows: list[tuple], txn: Transaction | None = None
    ) -> list[TupleId]:
        """Insert a batch of rows: heap appends first, then each index once.

        Row-for-row equivalent to repeated :meth:`insert`, but every index
        sees the whole batch in a single :meth:`TableIndex.insert_rows`
        call, which is what lets SP-GiST amortize descent and page-write
        work across the batch.
        """
        for row in rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row arity {len(row)} != table arity {len(self.columns)}"
                )
        xmin = txn.xid if txn else XID_FROZEN
        pairs = [(self.heap.insert(row, xmin=xmin), row) for row in rows]
        for index in self.indexes.values():
            index.insert_rows(pairs)
        return [tid for tid, _row in pairs]

    def mvcc_delete(self, tid: TupleId, txn: Transaction) -> tuple:
        """DELETE under MVCC: stamp ``xmax``; indexes are left alone.

        The version (and its index entries) survives for older snapshots;
        VACUUM reclaims both once the deleter's commit passes the horizon.
        Raises :class:`~repro.errors.TxnError` when another transaction
        already claimed the tuple (first-updater-wins).
        """
        assert self.txn is not None, "mvcc_delete needs a transaction manager"
        tup = self.heap.tuple_at(tid)
        if tup is None:
            raise PlannerError(f"tuple {tid} is already deleted")
        self.txn.check_delete_conflict(tup, txn)
        record = self.heap.mark_deleted(tid, txn.xid)
        txn.touched.append(tid)
        return record

    def mvcc_update(
        self, tid: TupleId, new_row: tuple, txn: Transaction
    ) -> TupleId:
        """UPDATE under MVCC: expire the old version, insert the new one.

        Both halves carry the same xid, so they become visible (or vanish
        on rollback) atomically — one transaction, exactly as the SQL
        layer's UPDATE statement requires. The new version's index entries
        are inserted now; the old version's are reclaimed by VACUUM.
        """
        if len(new_row) != len(self.columns):
            raise ValueError(
                f"row arity {len(new_row)} != table arity {len(self.columns)}"
            )
        self.mvcc_delete(tid, txn)
        new_tid = self.insert(new_row, txn=txn)
        txn.touched.append(new_tid)
        return new_tid

    def current_snapshot(self) -> Snapshot | None:
        """A fresh read snapshot, or None without a transaction manager."""
        if self.txn is None:
            return None
        return self.txn.read_snapshot()

    def fetch(
        self, tid: TupleId, snapshot: Snapshot | None = None
    ) -> tuple | None:
        """The row at ``tid`` as ``snapshot`` sees it (None if invisible).

        Without an explicit snapshot, a table with a transaction manager
        reads through a fresh one; a manager-less table returns any stored
        version.
        """
        tup = self.heap.tuple_at(tid)
        if tup is None:
            return None
        if snapshot is None:
            snapshot = self.current_snapshot()
        if snapshot is not None and not snapshot.tuple_visible(tup):
            return None
        return tup.record

    def fetch_many(
        self, tids: list[TupleId], snapshot: Snapshot | None = None
    ) -> list[tuple[TupleId, tuple]]:
        """Resolve a batch of TIDs to visible rows, preserving TID order.

        The index-scan half of the batch executor: one visibility check
        pass over the whole batch instead of a :meth:`fetch` call per TID.
        Invisible and tombstoned tuples are dropped (their TIDs simply do
        not appear in the result). Heap pages are buffer-resident after
        the first slot touch, so resolving slot-by-slot within the batch
        costs one ``tuple_at`` each but no extra page traffic.
        """
        if snapshot is None:
            snapshot = self.current_snapshot()
        tuple_at = self.heap.tuple_at
        if snapshot is None:
            return [
                (tid, tup.record)
                for tid, tup in ((tid, tuple_at(tid)) for tid in tids)
                if tup is not None
            ]
        stamp_visible = snapshot.stamp_visible
        verdicts: dict[tuple[int, int], bool] = {}
        out: list[tuple[TupleId, tuple]] = []
        for tid in tids:
            tup = tuple_at(tid)
            if tup is None:
                continue
            stamp = (tup.xmin, tup.xmax)
            verdict = verdicts.get(stamp)
            if verdict is None:
                verdict = verdicts[stamp] = stamp_visible(*stamp)
            if verdict:
                out.append((tid, tup.record))
        return out

    def scan(
        self, snapshot: Snapshot | None = None
    ) -> Iterator[tuple[TupleId, tuple]]:
        """Snapshot-consistent sequential scan over visible rows."""
        for page in self.scan_batches(snapshot):
            yield from page

    def scan_batches(
        self, snapshot: Snapshot | None = None
    ) -> Iterator[list[tuple[TupleId, tuple]]]:
        """Sequential scan yielding one heap page of visible rows at a time.

        The seq-scan half of the batch executor: visibility runs over the
        whole page's slot array with verdicts memoized per distinct
        ``(xmin, xmax)`` stamp (see :meth:`Snapshot.stamp_visible`), so
        the per-tuple cost is a dict probe rather than a full
        ``HeapTupleSatisfiesMVCC`` walk plus a generator resume. Pages
        may yield empty lists (all slots dead to the snapshot); the
        executor re-chunks pages into fixed-size row batches anyway.
        """
        if snapshot is None:
            snapshot = self.current_snapshot()
        if snapshot is None:
            for page in self.heap.scan_version_pages():
                yield [(tid, tup.record) for tid, tup in page]
            return
        stamp_visible = snapshot.stamp_visible
        verdicts: dict[tuple[int, int], bool] = {}
        for page in self.heap.scan_version_pages():
            for stamp in {(tup.xmin, tup.xmax) for _tid, tup in page}:
                if stamp not in verdicts:
                    verdicts[stamp] = stamp_visible(*stamp)
            yield [
                (tid, tup.record)
                for tid, tup in page
                if verdicts[tup.xmin, tup.xmax]
            ]

    # -- vacuum ----------------------------------------------------------------------------

    def vacuum(self, only_tids: set[TupleId] | None = None) -> "VacuumStats":
        """Reclaim versions dead to every snapshot (PostgreSQL's lazy VACUUM).

        Order matters, exactly as in PostgreSQL: first every index entry
        pointing at a dead TID is removed (``ambulkdelete``), only then is
        the heap slot reclaimed for reuse, and finally trailing all-empty
        pages are truncated so ``num_pages`` can shrink. With a transaction
        manager attached, "dead" is decided by
        :meth:`TransactionManager.tuple_dead` against the oldest-snapshot
        horizon; without one, there is nothing to reclaim (no deletes
        without a manager). ``only_tids`` restricts the pass to the
        given candidates (eager pruning after an autocommit statement).
        """
        dead: list[tuple[TupleId, tuple]] = []
        if self.txn is not None:
            for tid, tup in self.heap.scan_versions():
                if only_tids is not None and tid not in only_tids:
                    continue
                if self.txn.tuple_dead(tup):
                    dead.append((tid, tup.record))
        index_entries = 0
        for index in self.indexes.values():
            index_entries += index.bulk_delete_rows(dead)
        for tid, _row in dead:
            self.heap.reclaim(tid)
        pages_truncated = self.heap.truncate_trailing_empty_pages()
        pages, pages_needed = self.heap.vacuum_page_stats()
        _VACUUM_RUNS.inc()
        _VACUUM_VERSIONS.inc(len(dead))
        _VACUUM_INDEX_ENTRIES.inc(index_entries)
        _VACUUM_PAGES_TRUNCATED.inc(pages_truncated)
        return VacuumStats(
            versions_pruned=len(dead),
            index_entries_pruned=index_entries,
            pages_truncated=pages_truncated,
            pages=pages,
            pages_needed=pages_needed,
        )

    def heap_stats(self) -> list[tuple[str, int]]:
        """(stat, value) rows for the ``repro_heap_stats('t')`` SRF."""
        pages, pages_needed = self.heap.vacuum_page_stats()
        snapshot = self.current_snapshot()
        if snapshot is None:
            visible = len(self.heap)
        else:
            visible = sum(
                1
                for _tid, tup in self.heap.scan_versions()
                if snapshot.tuple_visible(tup)
            )
        return [
            ("versions", len(self.heap)),
            ("visible_rows", visible),
            ("dead_versions", len(self.heap) - visible),
            ("pages", pages),
            ("pages_needed", pages_needed),
            ("free_slots", self.heap.free_slot_count),
        ]

    # -- statistics ------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.heap)

    @property
    def heap_pages(self) -> int:
        return self.heap.num_pages

    def analyze(self) -> dict[str, int]:
        """Gather per-column distinct counts (PostgreSQL's ANALYZE).

        One heap scan over currently-visible rows; results are cached and
        consulted by the planner's selectivity estimation until the next
        analyze.
        """
        positions = range(len(self.columns))
        values: list[set] = [set() for _ in positions]
        for _tid, row in self.scan():
            for i in positions:
                values[i].add(row[i])
        self._distinct_counts = {
            column.name: len(values[i]) for i, column in enumerate(self.columns)
        }
        return dict(self._distinct_counts)

    def stats(self, column_name: str | None = None) -> TableStats:
        """Row count plus the analyzed distinct count of ``column_name``.

        Never scans — returns ``distinct_count=None`` (falling back to the
        planner's default selectivities) until :meth:`analyze` has run.
        """
        distinct = None
        if column_name is not None:
            distinct = self._distinct_counts.get(column_name)
        return TableStats(row_count=len(self.heap), distinct_count=distinct)
