"""Mini-SQL front end covering the paper's Table 6 statement shapes.

:func:`repro.engine.parse.parse` reads one statement into a
:class:`~repro.engine.parse.Statement` and :meth:`Database.execute` runs
it. The grammar (keywords case-insensitive, one statement per call, an
optional trailing ``;``)::

    statement    := select | insert | update | delete | explain
                  | create_table | create_index | DROP TABLE name
                  | DROP INDEX name ON name | BEGIN [TRANSACTION] | (COMMIT | END) [TRANSACTION]
                  | ROLLBACK [TRANSACTION] | VACUUM name | ANALYZE name
                  | CHECK INDEX name | REPACK INDEX name
                  | DECLARE name CURSOR FOR select
                  | FETCH [integer | ALL] [FROM] name | CLOSE name
    select       := SELECT ('*' | COUNT '(' '*' ')' | name {',' name})
                    FROM name [WHERE predicate] [LIMIT integer]
                  | SELECT '*' FROM repro_incidents '(' ')'
                  | SELECT '*' FROM repro_heap_stats '(' string ')'
    explain      := EXPLAIN [ANALYZE] select       -- over a table
    insert       := INSERT INTO name VALUES row {',' row}
    row          := '(' literal {',' literal} ')'
    update       := UPDATE name SET name '=' literal WHERE predicate
    delete       := DELETE FROM name WHERE predicate
    predicate    := name operator literal
    create_table := CREATE TABLE name '(' column {',' column} ')'
    column       := name type ['(' integer {',' integer} ')']
    create_index := CREATE INDEX name ON name USING name '(' name [name] ')'
    literal      := string | ['-'] number | name | group
    group        := '(' ... ')' | '[' ... ']'      -- balanced, kept verbatim

A *string* is single-quoted with ``''`` for a quote (``'O''Brien'``);
``;``, ``,`` and ``)`` inside quotes are text. An *operator* is any run of
``+ - * / < > = ~ ! @ # % ^ & | ` ?`` and needs no spaces around it
(``name='abc'``). As in PostgreSQL, a run that ends in ``+`` or ``-`` and
holds none of ``~ ! @ # % ^ & | ` ?`` gives the sign back, so
``id=-10`` is ``id = -10``. The grammar takes any operator; the catalog
decides which exist for the column's type: ``=``, ``#=`` (prefix), ``?=``
(regex), ``*=`` (wildcard), ``@=`` (substring), ``@`` (point equality),
``^`` (point in box), ``&&`` (segment overlaps box), ``@@`` (nearest
neighbour) and ``<``, ``<=``, ``>``, ``>=``. To see what a text parses
to, print ``repro.engine.parse.parse(text)``.

Literals are bound using the column's catalog type: varchar literals must
be quoted, points parse as ``(x,y)``, boxes as ``(x1,y1,x2,y2)``, segments
as ``[(x1,y1),(x2,y2)]``. The operand type of an operator (e.g. ``^``
takes a box although the column is a point) comes from the operator's
catalog row, exactly as PostgreSQL binds ``leftarg``/``rightarg``.

Transactions: every DML statement outside ``BEGIN``/``COMMIT`` autocommits.
Inside a transaction block, all statements read through the snapshot taken
at ``BEGIN`` (plus the transaction's own writes); ``ROLLBACK`` makes every
write vanish. A write-write conflict (:class:`~repro.errors.TxnError`)
aborts the whole block, PostgreSQL's "could not serialize" behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Iterable

from repro.engine.catalog import SystemCatalog, default_catalog
from repro.engine.executor import execute_plan_batches, limit_batches
from repro.engine.parse import Literal, Statement, parse
from repro.engine.planner import NN_OPERATOR, Plan, Predicate, plan_query
from repro.engine.table import Column, Table
from repro.engine.txn import Snapshot, Transaction, TransactionManager
from repro.errors import SQLError, TxnAbortedError, TxnError
from repro.geometry.box import Box
from repro.geometry.point import Point
from repro.geometry.segment import LineSegment
from repro.settings import SETTINGS
from repro.storage.buffer import BufferPool
from repro.storage.disk import DiskManager


class WouldBlock(Exception):
    """Internal control-flow signal from a session's row-lock hook.

    Raised by :attr:`SessionState.row_locker` when a TID lock cannot be
    granted immediately. Not an error: the SQL layer unwinds the statement
    *without* aborting an explicit transaction block, the server layer
    waits on the lock (with deadlock detection and timeouts) outside the
    engine mutex, and the statement is retried. Never surfaces to clients.
    """

    def __init__(self, key: tuple) -> None:
        super().__init__(f"lock {key!r} would block")
        self.key = key


class Cursor:
    """One open server-side cursor: batch-wise pagination over a SELECT.

    The cursor owns a stream of already-projected row *batches* — the same
    batches the executor produced — plus a small carry buffer so FETCH
    counts need not align with batch boundaries. Cursors declared inside a
    transaction block stream lazily (2PL table locks protect the scan);
    cursors declared in autocommit mode are materialized at DECLARE (the
    ``WITH HOLD`` behaviour), so they stay valid across later statements.
    """

    def __init__(
        self, name: str, batches: Iterable[list[tuple]], held: bool
    ) -> None:
        self.name = name
        self.held = held
        self._batches = iter(batches)
        self._pending: list[tuple] = []
        self._exhausted = False

    def fetch(self, count: int | None) -> list[tuple]:
        """Up to ``count`` rows; ``None`` = one executor batch, ``-1`` = all."""
        if count is None:
            count = SETTINGS.batch_size
        out: list[tuple] = []
        while count < 0 or len(self._pending) < count:
            if self._exhausted:
                break
            try:
                self._pending.extend(next(self._batches))
            except StopIteration:
                self._exhausted = True
        if count < 0:
            out, self._pending = self._pending, []
            return out
        out = self._pending[:count]
        del self._pending[:count]
        return out

    def close(self) -> None:
        """Release the underlying batch iterator and drop buffered rows."""
        self._batches = iter(())
        self._pending = []
        self._exhausted = True


@dataclass
class SessionState:
    """One session's transaction state over a shared :class:`Database`.

    The database embeds a default instance so single-session callers keep
    the historical ``db.execute(sql)`` API; the server layer creates one
    per connected session and passes it to every ``execute`` call, which
    is what lets many sessions interleave transactions over one cluster.
    """

    #: The open BEGIN block, if any (None = autocommit mode).
    current: Transaction | None = None
    #: Tables written by the open block, for eager pruning at COMMIT.
    block_tables: set[str] = field(default_factory=set)
    #: True once a statement inside the block failed: the transaction is
    #: aborted and only COMMIT/ROLLBACK (both ending it as a rollback)
    #: are accepted, PostgreSQL's "current transaction is aborted".
    failed: bool = False
    #: :attr:`Database.epoch` at BEGIN; a mismatch means the underlying
    #: cluster was rebound (failover) and the block must abort.
    epoch: int = 0
    #: Server hook: called as ``row_locker(table_name, tid)`` for every
    #: row a DML statement is about to claim. May raise
    #: :class:`WouldBlock` (statement retried after waiting) or a
    #: transaction-aborting lock error.
    row_locker: Callable[[str, Any], None] | None = None
    #: Server hook: called periodically during long scans/statements;
    #: raises StatementTimeoutError past the statement deadline.
    deadline_check: Callable[[], None] | None = None
    #: Open cursors by (lower-cased) name. Cursors declared inside a
    #: transaction block die with it; held (autocommit) cursors survive
    #: until CLOSE.
    cursors: dict[str, "Cursor"] = field(default_factory=dict)

    def drop_block_cursors(self) -> None:
        """Close every non-held cursor (transaction block ended)."""
        for name in [n for n, c in self.cursors.items() if not c.held]:
            self.cursors[name].close()
            del self.cursors[name]

    def fail_block(self) -> Transaction | None:
        """Enter the aborted-block state; return the block's transaction
        for the caller to roll back."""
        txn, self.current = self.current, None
        self.failed = True
        self.block_tables = set()
        self.drop_block_cursors()
        return txn


_TYPE_ALIASES = {
    **dict.fromkeys(("varchar", "text", "char"), "varchar"),
    **dict.fromkeys(("int", "integer", "bigint"), "int"),
    **dict.fromkeys(("float", "real", "double"), "float"),
    **{name: name for name in ("point", "lseg", "box")},
}

#: The text-to-value parser of each non-varchar column type.
_LITERAL_PARSERS: dict[str, Callable[[str], Any]] = {
    "int": int,
    "float": float,
    "point": Point.parse,
    "box": Box.parse,
    "lseg": LineSegment.parse,
}


class Database:
    """A catalog, a buffer pool, and a set of tables — one "cluster".

    ``execute()`` parses and runs one statement, returning rows for SELECT,
    a plan description for EXPLAIN, and a status string for DDL/DML.
    """

    def __init__(
        self,
        buffer: BufferPool | None = None,
        catalog: SystemCatalog | None = None,
        buffer_capacity: int = 256,
    ) -> None:
        self.buffer = buffer or BufferPool(DiskManager(), capacity=buffer_capacity)
        self.catalog = catalog or default_catalog()
        self.tables: dict[str, Table] = {}
        #: One transaction manager per cluster; every table shares it.
        self.txn = TransactionManager()
        #: Bumped whenever the underlying cluster is rebound (the
        #: replicated façade bumps it at failover); open blocks started
        #: under an older epoch are fenced off and aborted.
        self.epoch = 0
        #: The embedded default session for single-session callers.
        self._session = SessionState()

    # -- public API -----------------------------------------------------------------

    def execute(
        self, sql: str | Statement, session: SessionState | None = None
    ) -> Any:
        """Run one statement, given as text or already parsed.

        Each statement kind has a handler named ``_<kind>``. ``session``
        carries per-session transaction state; omitted, the database's
        embedded default session is used (the single-session API every
        pre-server caller keeps).
        """
        if session is None:
            session = self._session
        if session.current is not None and session.epoch != self.epoch:
            # The cluster was rebound under an open block (failover): the
            # block's transaction manager is gone, so the block is dead.
            session.fail_block()
        if session.failed:
            try:
                ends_block = _parsed(sql).kind in ("commit", "rollback")
            except SQLError:
                ends_block = False
            if ends_block:
                session.failed = False
                session.current = None
                session.block_tables = set()
                return "ROLLBACK"
            raise TxnAbortedError(
                "current transaction is aborted, commands ignored until "
                "end of transaction block"
            )
        try:
            statement = _parsed(sql)
            return getattr(self, "_" + statement.kind)(statement, session)
        except WouldBlock:
            raise  # control flow, not a failure: the statement is retried
        except Exception:
            if session.current is not None:
                # Any error inside an explicit block aborts the whole
                # block (PostgreSQL's rule); the DML paths already did
                # this via _abort_write, this catches the rest (failed
                # SELECT/EXPLAIN/parse/bind errors).
                txn = session.fail_block()
                if txn.is_open:
                    self.txn.abort(txn)
            raise

    def table(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name."""
        try:
            return self.tables[name.lower()]
        except KeyError:
            raise SQLError(f"unknown table {name!r}") from None

    # -- DDL -------------------------------------------------------------------------

    def _create_table(self, statement: Statement, session: SessionState) -> str:
        name = statement.table
        if name.lower() in self.tables:
            raise SQLError(f"table {name!r} already exists")
        columns = []
        for col_name, raw_type in statement.columns:
            type_name = _TYPE_ALIASES.get(raw_type)
            if type_name is None:
                raise SQLError(f"unknown column type {raw_type!r}")
            columns.append(Column(col_name, type_name))
        self.tables[name.lower()] = Table(
            name, columns, self.buffer, self.catalog, txn=self.txn
        )
        return f"CREATE TABLE {name}"

    def _create_index(self, statement: Statement, session: SessionState) -> str:
        self.table(statement.table).create_index(
            statement.index,
            statement.columns[0],
            using=statement.using,
            opclass_name=statement.opclass,
        )
        return f"CREATE INDEX {statement.index}"

    def _check_index(self, statement: Statement, session: SessionState) -> str:
        """``CHECK INDEX <name>``: run the amcheck-style verifier.

        Finds the index by name across all tables, runs its structure's
        ``check()`` (for SP-GiST, :func:`repro.resilience.check.spgist_check`)
        and returns the one-line report. Problems are *reported*, not
        raised — mirroring ``amcheck``, which leaves acting on a bad index
        to the operator (the executor quarantines on its own when a scan
        actually trips).
        """
        return self._structure_call(statement, "CHECK INDEX", "check")().describe()

    def _structure_call(self, statement: Statement, command: str, name: str) -> Any:
        """The ``name`` method of the structure behind ``statement.index``;
        a structure without one cannot serve ``command``."""
        _table, index = self.find_index(statement.index)
        method = getattr(index.structure, name, None)
        if method is None:
            raise SQLError(
                f"{command} supports SP-GiST indexes; {statement.index!r} "
                f"uses {index.access_method!r}"
            )
        return method

    def find_index(self, index_name: str) -> tuple[Table, Any]:
        """Locate an index by name across all tables: ``(table, index)``.

        Public because the server takes a ``CHECK INDEX`` or ``REPACK
        INDEX`` statement's lock on the owning table.
        """
        for table in self.tables.values():
            index = table.indexes.get(index_name)
            if index is not None:
                return table, index
        raise SQLError(f"unknown index {index_name!r}")

    def _repack_index(self, statement: Statement, session: SessionState) -> str:
        """``REPACK INDEX <name>``: online re-cluster of degraded subtrees.

        A maintenance statement in the VACUUM mould: refused inside a
        transaction block, commits through the maintenance hook so the
        replicated façade ships the moved pages to standbys. The repack
        itself runs in bounded subtree steps (see
        :meth:`repro.core.tree.SPGiSTIndex.repack_online`); between steps
        the structure is always consistent, which is what makes the
        server's short-lock-step scheduling and kill-anywhere recovery
        safe.
        """
        if session.current is not None:
            raise SQLError("REPACK INDEX cannot run inside a transaction block")
        stats = self._structure_call(
            statement, "REPACK INDEX", "repack_online"
        )()
        self._on_txn_commit(None)
        return (
            f"REPACK INDEX {statement.index}: {stats.subtrees_repacked} subtrees, "
            f"{stats.nodes_moved} nodes moved, {stats.pages_freed} pages "
            f"freed; fill {stats.fill_before:.2f} -> {stats.fill_after:.2f}"
        )

    # -- cursors ---------------------------------------------------------------------

    def _declare(self, statement: Statement, session: SessionState) -> str:
        """``DECLARE <name> CURSOR FOR SELECT ...``: open a cursor.

        Inside a transaction block the cursor streams lazily through the
        block's snapshot; in autocommit mode it is materialized now (the
        ``WITH HOLD`` behaviour), so later statements — even index
        maintenance — cannot invalidate it.
        """
        name = statement.cursor
        key = name.lower()
        if key in session.cursors:
            raise SQLError(f"cursor {name!r} already exists")
        batches = self._select_batches(statement.inner, session)
        held = session.current is None
        if held:
            batches = list(batches)
        session.cursors[key] = Cursor(key, batches, held)
        return f"DECLARE {name}"

    def _fetch(self, statement: Statement, session: SessionState) -> list[tuple]:
        """``FETCH [n|ALL] [FROM] <name>``: the next page of rows.

        Without a count, one executor batch (``SETTINGS.batch_size`` rows)
        is returned — the cheap-pagination contract: the server hands out
        exactly the batches the executor produced.
        """
        cursor = session.cursors.get(statement.cursor.lower())
        if cursor is None:
            raise SQLError(f"unknown cursor {statement.cursor!r}")
        return cursor.fetch(statement.count)

    def _close(self, statement: Statement, session: SessionState) -> str:
        """``CLOSE <name>``: drop a cursor."""
        name = statement.cursor
        cursor = session.cursors.pop(name.lower(), None)
        if cursor is None:
            raise SQLError(f"unknown cursor {name!r}")
        cursor.close()
        return f"CLOSE {name}"

    def _incidents(self, statement: Statement, session: SessionState) -> list[tuple]:
        """``SELECT * FROM repro_incidents()``: the incident log as rows.

        A set-returning function in the PostgreSQL style: one row per
        recorded resilience incident, columns ``(kind, subject,
        error_type, detail)``.
        """
        from repro.resilience.incidents import INCIDENTS

        return [
            (i.kind, i.subject, i.error_type, i.detail)
            for i in INCIDENTS.incidents
        ]

    def _heap_stats(self, statement: Statement, session: SessionState) -> list[tuple]:
        """``SELECT * FROM repro_heap_stats('t')``: heap version accounting."""
        return self.table(statement.table).heap_stats()

    def _analyze(self, statement: Statement, session: SessionState) -> str:
        self.table(statement.table).analyze()
        return f"ANALYZE {statement.table}"

    def _drop_index(self, statement: Statement, session: SessionState) -> str:
        self.table(statement.table).drop_index(statement.index)
        return f"DROP INDEX {statement.index}"

    def _drop_table(self, statement: Statement, session: SessionState) -> str:
        name = statement.table
        if name.lower() not in self.tables:
            raise SQLError(f"unknown table {name!r}")
        del self.tables[name.lower()]
        return f"DROP TABLE {name}"

    # -- transaction control ---------------------------------------------------------

    def _begin(self, statement: Statement, session: SessionState) -> str:
        if session.current is not None:
            raise SQLError("a transaction is already in progress")
        session.current = self.txn.begin()
        session.epoch = self.epoch
        session.block_tables = set()
        return "BEGIN"

    def _end_block(self, session: SessionState) -> Transaction:
        if session.current is None:
            raise SQLError("no transaction in progress")
        txn, session.current = session.current, None
        session.drop_block_cursors()
        return txn

    def _commit(self, statement: Statement, session: SessionState) -> str:
        txn = self._end_block(session)
        self.txn.commit(txn)
        self._on_txn_commit(txn)
        self._prune_after_commit(txn, session.block_tables)
        session.block_tables = set()
        return "COMMIT"

    def _rollback(self, statement: Statement, session: SessionState) -> str:
        txn = self._end_block(session)
        session.block_tables = set()
        self.txn.abort(txn)
        return "ROLLBACK"

    def _on_txn_commit(self, txn: Transaction | None) -> None:
        """Post-commit hook: a plain database has nothing more to do.

        The replicated façade (:class:`repro.server.ReplicatedDatabase`)
        overrides this to make the commit durable and quorum-acknowledged
        on its replica set. ``txn`` is None for maintenance commits
        (VACUUM) that mutate pages without a user transaction.
        """

    def _vacuum(self, statement: Statement, session: SessionState) -> str:
        table_name = statement.table
        if session.current is not None:
            raise SQLError("VACUUM cannot run inside a transaction block")
        stats = self.table(table_name).vacuum()
        self._on_txn_commit(None)
        return (
            f"VACUUM {table_name}: removed {stats.versions_pruned} versions, "
            f"{stats.index_entries_pruned} index entries; truncated "
            f"{stats.pages_truncated} pages ({stats.pages} pages, "
            f"{stats.pages_needed} needed)"
        )

    def _write_txn(self, session: SessionState) -> tuple[Transaction, bool]:
        """The open block's transaction, or a fresh autocommit one."""
        if session.current is not None:
            return session.current, False
        return self.txn.begin(), True

    def _finish_write(
        self,
        txn: Transaction,
        autocommit: bool,
        table: Table,
        session: SessionState,
    ) -> None:
        """Commit an autocommit statement's transaction and eager-prune.

        Pruning right after an autocommit DELETE/UPDATE keeps the legacy
        contract — "SQL DELETE removes the index entries" — whenever no
        other transaction could still see the old versions. Interleaved
        transactions suppress it; VACUUM catches up later.
        """
        if not autocommit:
            session.block_tables.add(table.name.lower())
            return
        self.txn.commit(txn)
        self._on_txn_commit(txn)
        self._prune_after_commit(txn, {table.name.lower()})

    def _abort_write(
        self, txn: Transaction, autocommit: bool, session: SessionState
    ) -> None:
        """A statement failed mid-write: roll its transaction back.

        For an autocommit statement that aborts just the statement; for an
        explicit block the whole block enters the **aborted** state
        (PostgreSQL's behaviour on any in-block error): the transaction is
        rolled back at once, and every later statement is rejected with
        :class:`~repro.errors.TxnAbortedError` until COMMIT/ROLLBACK ends
        the block (both as a rollback).
        """
        if not autocommit:
            session.fail_block()
        if txn.is_open:
            self.txn.abort(txn)

    def _lock_victims(
        self, session: SessionState, table: Table, victims: list[tuple]
    ) -> None:
        """Run the session's row-lock hook over a DML statement's victims.

        Called *before* any mutation so a :class:`WouldBlock` unwind
        leaves nothing half-done; the server waits for the contested lock
        and retries the whole statement.
        """
        locker = session.row_locker
        if locker is None:
            return
        name = table.name.lower()
        for tid, _row in victims:
            locker(name, tid)

    def _prune_after_commit(
        self, txn: Transaction, table_names: set[str]
    ) -> None:
        if not txn.touched or not self.txn.quiescent():
            return
        only = set(txn.touched)
        for name in table_names:
            table = self.tables.get(name)
            if table is not None:
                table.vacuum(only_tids=only)

    # -- DML -------------------------------------------------------------------------

    def _insert(self, statement: Statement, session: SessionState) -> str:
        """INSERT one row — or many: ``VALUES (...), (...), ...``.

        Multi-row statements take the batched write path
        (:meth:`Table.insert_many`), which amortizes heap appends and runs
        each index's batch insert once instead of once per row.
        """
        table = self.table(statement.table)
        types = [column.type_name for column in table.columns]
        bind = self._bind_literal
        rows = []
        for literals in statement.rows:
            if len(literals) != len(types):
                raise SQLError(
                    f"INSERT arity {len(literals)} != table arity {len(types)}"
                )
            rows.append(tuple(map(bind, literals, types)))
        txn, autocommit = self._write_txn(session)
        try:
            if len(rows) == 1:
                table.insert(rows[0], txn=txn)
            else:
                table.insert_many(rows, txn=txn)
        except Exception:
            self._abort_write(txn, autocommit, session)
            raise
        self._finish_write(txn, autocommit, table, session)
        return f"INSERT 0 {len(rows)}"

    def _find_victims(
        self,
        table: Table,
        predicate: Predicate,
        snapshot: Snapshot,
        session: SessionState,
    ) -> list[tuple]:
        """(tid, row) pairs the predicate selects under ``snapshot``."""
        position = table.column_index(predicate.column)
        operator = table.catalog.operators_named(
            predicate.op, table.columns[position].type_name
        )[0]
        check = session.deadline_check
        interval = SETTINGS.deadline_check_interval
        victims = []
        for i, (tid, row) in enumerate(table.scan(snapshot)):
            if check is not None and i % interval == 0:
                check()
            if operator.apply(row[position], predicate.operand):
                victims.append((tid, row))
        return victims

    def _delete(self, statement: Statement, session: SessionState) -> str:
        table = self.table(statement.table)
        predicate = self._bind_predicate(table, statement.predicate)
        count = self._write_victims(
            table, predicate, session, lambda tid, _row, txn: table.mvcc_delete(tid, txn)
        )
        return f"DELETE {count}"

    def _update(self, statement: Statement, session: SessionState) -> str:
        """UPDATE: new versions for every matching row, one transaction.

        The old version's expiry and the new version's insert carry the
        same xid, so readers see either both or neither — the atomic
        index-maintenance fix rides on the MVCC layer.
        """
        table = self.table(statement.table)
        predicate = self._bind_predicate(table, statement.predicate)
        position = table.column_index(statement.columns[0])
        value = self._bind_literal(
            statement.rows[0][0], table.columns[position].type_name
        )

        def update(tid: Any, row: tuple, txn: Transaction) -> None:
            table.mvcc_update(tid, row[:position] + (value,) + row[position + 1:], txn)

        return f"UPDATE {self._write_victims(table, predicate, session, update)}"

    def _write_victims(
        self,
        table: Table,
        predicate: Predicate,
        session: SessionState,
        write: Callable[[Any, tuple, Transaction], None],
    ) -> int:
        """Run ``write(tid, row, txn)`` over every row the predicate
        selects, in one transaction; returns the row count."""
        txn, autocommit = self._write_txn(session)
        try:
            victims = self._find_victims(table, predicate, txn.snapshot, session)
            self._lock_victims(session, table, victims)
        except WouldBlock:
            # Not a failure: drop the provisional autocommit txn (nothing
            # was written) so the retried statement restarts cleanly.
            if autocommit:
                self._abort_write(txn, True, session)
            raise
        except Exception:
            self._abort_write(txn, autocommit, session)
            raise
        try:
            for tid, row in victims:
                write(tid, row, txn)
        except Exception:
            self._abort_write(txn, autocommit, session)
            raise
        self._finish_write(txn, autocommit, table, session)
        return len(victims)

    # -- queries -----------------------------------------------------------------------

    def _select(self, statement: Statement, session: SessionState) -> list[tuple]:
        return [row for batch in self._select_batches(statement, session) for row in batch]

    def _select_batches(
        self, statement: Statement, session: SessionState
    ) -> Iterable[list[tuple]]:
        """The batched SELECT pipeline every consumer shares.

        Deadline checks, LIMIT, projection, and COUNT(*) all operate on
        whole executor batches; :meth:`_select` flattens the stream for
        the statement API, while DECLARE CURSOR paginates it as-is.
        """
        plan = self._plan_select(statement, session)
        # A LIMIT caps the batch size so lazy scans (NN especially) never
        # produce more rows than the limit needs plus a partial batch.
        limit = statement.limit
        batch_size = None
        if limit is not None:
            batch_size = max(1, min(SETTINGS.batch_size, limit))
        batches = execute_plan_batches(plan, batch_size=batch_size)
        if session.deadline_check is not None:
            batches = self._checked_batches(batches, session.deadline_check)
        if limit is not None:
            batches = limit_batches(batches, limit)
        if statement.columns == ("*",):
            return batches
        if statement.columns == ("count(*)",):
            return iter([[(sum(len(batch) for batch in batches),)]])
        positions = [plan.table.column_index(name) for name in statement.columns]
        # itemgetter projects a whole batch with no per-row bytecode; the
        # single-column case needs the 1-tuple wrapped by hand.
        if len(positions) == 1:
            project = itemgetter(positions[0])
            return ([(project(row),) for row in batch] for batch in batches)
        project = itemgetter(*positions)
        return ([project(row) for row in batch] for batch in batches)

    def _explain(self, statement: Statement, session: SessionState) -> str:
        from repro.engine.explain import explain, explain_analyze

        report = explain_analyze if statement.analyze else explain
        return report(self, statement.inner, session).render()

    @staticmethod
    def _checked_batches(
        batches: Iterable[list[tuple]], check: Callable[[], None]
    ):
        """Statement-deadline checks at batch granularity.

        One check per batch replaces the old every-64-rows row counter:
        with the default batch size the cadence is comparable, and the
        check always runs before the first batch is surfaced.
        """
        check()
        for batch in batches:
            yield batch
            check()

    def _plan_select(self, statement: Statement, session: SessionState) -> Plan:
        table = self.table(statement.table)
        predicate = None
        if statement.predicate is not None:
            predicate = self._bind_predicate(table, statement.predicate)
        plan = plan_query(table, predicate)
        if session.current is not None:
            # Inside BEGIN ... COMMIT every statement reads through the
            # snapshot taken at BEGIN (plus the block's own writes).
            plan.snapshot = session.current.snapshot
        return plan

    # -- literal binding -------------------------------------------------------------------

    def _bind_predicate(
        self, table: Table, predicate: tuple[str, str, Literal]
    ) -> Predicate:
        column, op, literal = predicate
        col = table.column(column)
        if op == NN_OPERATOR:
            # The NN query object is a value of the column's "query space":
            # a point for spatial columns, a string for varchar.
            operand_type = "point" if col.type_name in ("point", "lseg") else col.type_name
        else:
            operators = table.catalog.operators_named(op, col.type_name)
            if not operators:
                raise SQLError(
                    f"operator {op!r} is not defined for type {col.type_name!r}"
                )
            operand_type = operators[0].right_type
        return Predicate(column, op, self._bind_literal(literal, operand_type))

    @staticmethod
    def _bind_literal(literal: Literal, type_name: str) -> Any:
        text = literal.text
        if type_name == "varchar":
            if not literal.quoted:
                raise SQLError(f"varchar literals must be quoted: {text!r}")
            return text
        parser = _LITERAL_PARSERS.get(type_name)
        if parser is None:
            raise SQLError(f"cannot bind literal for type {type_name!r}")
        # Scalar/geometry parsers raise bare ValueError/TypeError on
        # malformed input; those are internal exceptions, so the front end
        # wraps them as typed SQLError binding failures.
        try:
            return parser(text)
        except (ValueError, TypeError, IndexError) as exc:
            raise SQLError(
                f"cannot bind literal {text!r} as {type_name}: {exc}"
            ) from None


def _parsed(sql: str | Statement) -> Statement:
    return sql if isinstance(sql, Statement) else parse(sql)
