"""The SQL façade over a replica set: sessions speak SQL, commits replicate.

:class:`ReplicatedDatabase` is a :class:`~repro.engine.sql.Database`
whose engine objects (buffer pool, table, transaction manager) are the
*primary node's* — statements execute directly against the primary's
heap and index, and the ``_on_txn_commit`` hook makes every commit
durable (meta-page snapshot + WAL fsync), ships it, and waits for quorum
acknowledgement, exactly like ``ReplicaSet.client_write`` does for raw
row batches.

Failover is handled by **rebinding**: each statement first checks
whether the replica set's primary changed (a chaos thread crashed it and
``tick()`` promoted a standby). If so, the façade swaps in the new
primary's engine objects and bumps :attr:`Database.epoch`; any session
whose transaction block began under the old epoch is fenced off — its
next statement aborts the block rather than committing against a
transaction manager that no longer exists. An unacknowledged commit
(quorum unreachable) surfaces as :class:`~repro.errors.ReplicationError`
— the classic in-doubt transaction: locally durable, never acked, and
the chaos oracle treats it as allowed-to-disappear.

The bridge also supplies the overload ``shed_reader`` used by
:class:`~repro.server.manager.SessionManager`: a plain indexed SELECT on
the replicated table is answered by ``ReplicaSet.client_read`` from a
lag-bounded standby instead of occupying the primary's queue.
"""

from __future__ import annotations

from typing import Any

from repro.engine.parse import Statement
from repro.engine.sql import Database, SessionState
from repro.engine.txn import Transaction
from repro.replication.replicaset import ReplicaSet


class ReplicatedDatabase(Database):
    """A Database façade bound to the current primary of a ReplicaSet."""

    #: The single replicated table every node carries.
    TABLE = "data"

    def __init__(self, replica_set: ReplicaSet) -> None:
        super().__init__()
        self.rs = replica_set
        self._bound_node = None
        self._bound_table = None
        #: Chaos hook, called after the engine applied a commit but before
        #: it is shipped/acknowledged — the exactly-once window. The
        #: network-edge harness uses it to crash the primary "between
        #: apply and ack"; production leaves it None.
        self.commit_fault: "Any | None" = None
        self._rebind()

    # -- primary binding -------------------------------------------------------

    def _rebind(self) -> None:
        """Point the façade at the current primary; fence on change.

        Cheap when nothing changed (two identity checks). The table
        identity check matters independently of the node check: a
        restarted primary rebuilds its Table object and transaction
        manager, and statements must not keep stale references.
        """
        node = self.rs.primary
        if node is self._bound_node and node.table is self._bound_table:
            return
        self._bound_node = node
        self._bound_table = node.table
        self.buffer = node.pool
        self.tables = {self.TABLE: node.table}
        self.txn = node.txn
        self.epoch += 1

    def execute(
        self, sql: str | Statement, session: SessionState | None = None
    ) -> Any:
        self._rebind()
        return super().execute(sql, session)

    # -- replication hooks -----------------------------------------------------

    def _on_txn_commit(self, txn: Transaction | None) -> None:
        """Make the commit durable, ship it, and wait for quorum.

        Raises :class:`~repro.errors.ReplicationError` when quorum cannot
        be reached: the commit is locally durable but NOT acknowledged
        (in-doubt) — callers must not treat the statement as succeeded.
        """
        if self.commit_fault is not None:
            self.commit_fault()
        self.rs._commit_and_ack()

    # -- overload shedding -----------------------------------------------------

    def standby_reader(self, statement: Statement) -> list | None:
        """Answer a shed-eligible SELECT from a standby, or decline.

        Only ``SELECT * FROM data WHERE key <op> <literal> [LIMIT n]``
        qualifies — exactly the shape ``ReplicaSet.client_read`` routes.
        Returns None for anything else so the manager falls back to
        normal admission.
        """
        if (
            statement.kind != "select"
            or statement.table.lower() != self.TABLE
            or statement.columns != ("*",)
            or statement.predicate is None
            or statement.predicate[0].lower() != "key"
        ):
            return None
        self._rebind()
        entry_epoch = self.epoch
        table = self.tables[self.TABLE]
        try:
            predicate = self._bind_predicate(table, statement.predicate)
        except Exception:
            return None
        rows = self.rs.client_read(predicate.op, predicate.operand)
        served = self.rs.last_served_by
        # Epoch fence: a failover that completed while the read was in
        # flight may have promoted a primary the serving node trails by
        # more than max_lag — rows from the old epoch's routing decision
        # must not be returned as a bounded-staleness answer. Declining
        # (None) sends the statement through normal admission against the
        # new primary instead.
        self._rebind()
        if self.epoch != entry_epoch:
            try:
                node = self.rs.node(served)
            except Exception:
                return None
            if node.crashed or self.rs.lag_of(node) > self.rs.max_lag:
                return None
        if statement.limit is not None:
            rows = rows[: statement.limit]
        return rows
