"""Cost-based access-path selection (paper Section 4.2).

Given one predicate ``col <op> literal``, the planner enumerates the
sequential scan plus every index whose operator class contains the operator,
costs each path with the estimator its access method's ``amcostestimate``
names (:mod:`repro.engine.cost`), and keeps the cheapest — the decision
PostgreSQL's optimizer makes from the ``amcostestimate`` entry the paper
registers for SP-GiST.

The NN operator ``@@`` (strategy 20) yields an ordered scan: an NN-capable
index streams TIDs by distance; without one the planner falls back to a
sort-all sequential scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.engine.cost import CostEstimate, seqscan_cost
from repro.engine.table import Table, TableIndex
from repro.errors import (
    IndexCorruptionError,
    PageChecksumError,
    PlannerError,
)
from repro.resilience.incidents import INCIDENTS

#: Operator names treated as nearest-neighbour (ordered) scans.
NN_OPERATOR = "@@"


@dataclass(frozen=True)
class Predicate:
    """One WHERE clause: ``column <op> operand``."""

    column: str
    op: str
    operand: Any


@dataclass
class Plan:
    """Base class for access paths; ``kind`` names the node type."""

    table: Table
    predicate: Predicate | None
    cost: CostEstimate
    #: Which replication node serves this plan ("" = the local/default
    #: engine). Stamped by the read router (:mod:`repro.replication`) so
    #: EXPLAIN shows where a routed query actually ran.
    served_by: str = ""
    #: The MVCC snapshot this plan reads through. ``None`` means "resolve
    #: a fresh one at execution time" (autocommit statement semantics);
    #: the SQL layer stamps an open transaction's snapshot here so every
    #: statement of the transaction reads the same database state.
    snapshot: Any = None

    kind = "Plan"

    def describe(self) -> str:
        """One-line EXPLAIN rendering of this access path."""
        where = ""
        if self.predicate is not None:
            where = (
                f" where {self.predicate.column} {self.predicate.op} "
                f"{self.predicate.operand!r}"
            )
        serving = f" [served by {self.served_by}]" if self.served_by else ""
        return (
            f"{self.kind} on {self.table.name}{where} "
            f"(cost={self.cost.startup_cost:.2f}..{self.cost.total_cost:.2f} "
            f"sel={self.cost.selectivity:.4f}){serving}"
        )


@dataclass
class SeqScanPlan(Plan):
    kind = "Seq Scan"


@dataclass
class IndexScanPlan(Plan):
    index: TableIndex = None  # type: ignore[assignment]

    kind = "Index Scan"

    def describe(self) -> str:
        return super().describe() + f" using {self.index.name}"


@dataclass
class NNIndexScanPlan(Plan):
    index: TableIndex = None  # type: ignore[assignment]

    kind = "NN Index Scan"

    def describe(self) -> str:
        return super().describe() + f" using {self.index.name}"


@dataclass
class NNSortScanPlan(Plan):
    kind = "NN Sort Scan"


def plan_query(table: Table, predicate: Predicate | None) -> Plan:
    """Choose the cheapest access path for ``SELECT ... WHERE predicate``."""
    if predicate is None:
        return SeqScanPlan(
            table, None, seqscan_cost(table.heap_pages, len(table))
        )
    if predicate.op == NN_OPERATOR:
        return _plan_nn(table, predicate)

    column = table.column(predicate.column)
    operator = _find_operator(table, column.type_name, predicate.op)
    stats = table.stats(predicate.column)
    candidates: list[Plan] = [
        SeqScanPlan(table, predicate, seqscan_cost(table.heap_pages, len(table)))
    ]
    for index in table.indexes.values():
        if index.quarantined:
            continue  # corruption seen by the executor; do not plan into it
        if index.column.name != predicate.column:
            continue
        if not index.supports(predicate.op):
            continue
        try:
            cost = index.cost(stats, table.heap_pages, operator.restrict,
                              predicate.op, predicate.operand)
        except (IndexCorruptionError, PageChecksumError) as exc:
            quarantine_index(index, "index-cost-degraded", exc)
            continue
        candidates.append(IndexScanPlan(table, predicate, cost, index=index))
    return min(candidates, key=lambda plan: plan.cost.total_cost)


#: Signature of the optional degradation callback: (index, incident kind,
#: exception). Called after the incident is recorded and the index
#: quarantined, before the sequential-scan fallback starts.
OnDegrade = Callable[[Any, str, Exception], None]


def quarantine_index(
    index: Any,
    incident: str,
    exc: Exception,
    on_degrade: OnDegrade | None = None,
) -> None:
    """Record the incident and quarantine the index.

    The one way an index is sidelined, whether corruption surfaced while
    *costing* it (cost estimation walks the index, so it can trip over a
    corrupt page before any scan starts) or while the executor scanned it.
    The planner stops choosing a quarantined index. Nothing needs purging:
    nodes live only in buffer-pool frames, and a failed page read never
    admits its frame. ``on_degrade`` lets a caller observe the degradation
    in-band — the replication read router uses it to flag a standby whose
    index went bad for resync instead of silently serving it degraded
    forever.
    """
    INCIDENTS.record(incident, index.name, exc)
    index.quarantined = True
    if on_degrade is not None:
        on_degrade(index, incident, exc)


def _plan_nn(table: Table, predicate: Predicate) -> Plan:
    for index in table.indexes.values():
        if index.quarantined:
            continue
        if index.column.name == predicate.column and index.supports_nn():
            stats = table.stats()
            try:
                cost = index.cost(stats, table.heap_pages, "contsel",
                                  predicate.op, predicate.operand)
            except (IndexCorruptionError, PageChecksumError) as exc:
                quarantine_index(index, "index-cost-degraded", exc)
                continue
            return NNIndexScanPlan(table, predicate, cost, index=index)
    return NNSortScanPlan(
        table, predicate, seqscan_cost(table.heap_pages, len(table))
    )


def _find_operator(table: Table, left_type: str, op_name: str):
    matches = table.catalog.operators_named(op_name, left_type)
    if not matches:
        raise PlannerError(
            f"no operator {op_name!r} for left type {left_type!r}"
        )
    return matches[0]
