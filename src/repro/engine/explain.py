"""EXPLAIN / EXPLAIN ANALYZE with per-layer observability.

The paper's Section 5 is a measurement study: every comparison attributes
cost to a layer — planner choice, index descent, heap fetch, WAL. This
module is the query-level entry point to that attribution. ``explain``
renders the chosen plan tree with the planner's estimates;
``explain_analyze`` also runs the plan and reports, per node, the actual
row count and inclusive wall time, plus a per-layer section derived from
the :data:`repro.obs.METRICS` delta of the execution: buffer hits /
misses / evictions / write-backs, WAL records and bytes, checksum
verifications and failures, transient-fault retries, SP-GiST nodes
visited, and incidents recorded.

The buffer lines are cross-checked against the pool's own
:class:`~repro.storage.buffer.BufferStats` delta — the two accounting
paths must agree, and the obs test suite asserts they do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.engine.executor import execute_plan_batches, limit_batches
from repro.engine.parse import Statement, parse
from repro.engine.planner import (
    IndexScanPlan,
    NNIndexScanPlan,
    Plan,
)
from repro.errors import SQLError
from repro.obs import METRICS
from repro.settings import SETTINGS
from repro.storage.buffer import BufferStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.sql import Database, SessionState


class _InstrumentedBatches:
    """Counts batches, rows, and inclusive wall time of a batch stream."""

    __slots__ = ("inner", "rows", "batches", "seconds")

    def __init__(self, inner: Iterator[list[tuple]]) -> None:
        self.inner = inner
        self.rows = 0
        self.batches = 0
        self.seconds = 0.0

    def __iter__(self) -> "_InstrumentedBatches":
        return self

    def __next__(self) -> list[tuple]:
        started = time.perf_counter()
        try:
            batch = next(self.inner)
        finally:
            self.seconds += time.perf_counter() - started
        self.batches += 1
        self.rows += len(batch)
        return batch


@dataclass
class NodeReport:
    """One plan node's estimated and (optionally) actual figures."""

    label: str
    est_rows: int | None = None
    startup_cost: float | None = None
    total_cost: float | None = None
    selectivity: float | None = None
    actual_rows: int | None = None
    actual_batches: int | None = None
    wall_ms: float | None = None
    children: list["NodeReport"] = field(default_factory=list)

    def render(self, indent: int = 0) -> list[str]:
        """This node and its children as indented plan-tree text lines."""
        prefix = "  " * indent + ("-> " if indent else "")
        text = prefix + self.label
        if self.total_cost is not None:
            text += (
                f" (cost={self.startup_cost:.2f}..{self.total_cost:.2f}"
                f" sel={self.selectivity:.4f} est rows={self.est_rows})"
            )
        if self.actual_rows is not None:
            batches = ""
            if self.actual_batches is not None:
                batches = f" batches={self.actual_batches}"
            text += (
                f" (actual rows={self.actual_rows}{batches}"
                f" time={self.wall_ms:.3f}ms)"
            )
        lines = [text]
        for child in self.children:
            lines.extend(child.render(indent + 1))
        return lines


@dataclass
class ExplainReport:
    """A rendered-on-demand EXPLAIN [ANALYZE] result.

    ``str(report)`` (or :meth:`render`) gives the textual form; the typed
    fields stay available so tests and tools can reconcile counters
    without parsing text.
    """

    root: NodeReport
    analyzed: bool
    planning_ms: float
    execution_ms: float | None = None
    buffers: BufferStats | None = None  # pool-side delta (ground truth)
    metrics: dict[str, float] = field(default_factory=dict)  # registry delta

    def metric(self, prefix: str) -> float:
        """Sum of every registry-delta sample whose name starts ``prefix``.

        Labeled families produce one sample per child
        (``buffer_retries_total{op="read"}`` ...); summing by prefix folds
        them back into one per-layer figure.
        """
        return sum(
            value
            for name, value in self.metrics.items()
            if name == prefix or name.startswith(prefix + "{")
        )

    def render(self) -> str:
        """The full textual report: plan tree plus per-layer footer."""
        lines = self.root.render()
        if self.analyzed:
            m = self.metric
            lines.append(
                "buffers: "
                f"hit={m('buffer_hits_total'):.0f} "
                f"read={m('buffer_misses_total'):.0f} "
                f"evicted={m('buffer_evictions_total'):.0f} "
                f"written={m('buffer_dirty_writebacks_total'):.0f}"
            )
            lines.append(
                "wal: "
                f"records={m('wal_records_total'):.0f} "
                f"bytes={m('wal_bytes_total'):.0f} "
                f"commits={m('wal_commits_total'):.0f}"
            )
            lines.append(
                "checksums: "
                f"verified={m('checksum_verifications_total'):.0f} "
                f"failed={m('checksum_failures_total'):.0f}"
            )
            lines.append(
                "retries: "
                f"transient={m('buffer_retries_total'):.0f}"
            )
            nodes = m("spgist_nodes_visited_total")
            if nodes:
                lines.append(f"spgist: nodes visited={nodes:.0f}")
            incidents = m("incidents_total")
            if incidents:
                lines.append(f"incidents: {incidents:.0f}")
            lines.append(
                f"planning time={self.planning_ms:.3f}ms  "
                f"execution time={self.execution_ms:.3f}ms"
            )
        else:
            lines.append(f"planning time={self.planning_ms:.3f}ms")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def _plan_node(plan: Plan, row_count: int) -> NodeReport:
    """Describe one access-path node with the planner's estimates."""
    label = f"{plan.kind} on {plan.table.name}"
    if isinstance(plan, (IndexScanPlan, NNIndexScanPlan)):
        label = f"{plan.kind} using {plan.index.name} on {plan.table.name}"
    if plan.predicate is not None:
        label += (
            f" where {plan.predicate.column} {plan.predicate.op} "
            f"{plan.predicate.operand!r}"
        )
    cost = plan.cost
    return NodeReport(
        label=label,
        est_rows=max(1, round(cost.selectivity * row_count)) if row_count else 0,
        startup_cost=cost.startup_cost,
        total_cost=cost.total_cost,
        selectivity=cost.selectivity,
    )


def _plan(
    db: "Database", sql: "str | Statement", session: "SessionState | None"
) -> tuple[Plan, int | None, ExplainReport]:
    """Plan a SELECT (text with or without EXPLAIN, or a parsed one) under
    ``session``: the plan, its LIMIT, and its not-yet-run report."""
    statement = sql if isinstance(sql, Statement) else parse(sql)
    if statement.kind == "explain":
        statement = statement.inner
    if statement.kind != "select":
        raise SQLError(f"EXPLAIN supports only SELECT, got {statement.kind!r}")
    started = time.perf_counter()
    plan = db._plan_select(statement, session or db._session)
    planning_ms = (time.perf_counter() - started) * 1000.0
    root = _plan_node(plan, len(plan.table))
    if statement.limit is not None:
        root = NodeReport(label=f"Limit (rows={statement.limit})", children=[root])
    return plan, statement.limit, ExplainReport(root, False, planning_ms)


def explain(
    db: "Database", sql: "str | Statement", session: "SessionState | None" = None
) -> ExplainReport:
    """Plan ``sql`` (a SELECT, with or without a leading EXPLAIN) — no I/O."""
    return _plan(db, sql, session)[2]


def explain_analyze(
    db: "Database", sql: "str | Statement", session: "SessionState | None" = None
) -> ExplainReport:
    """Plan *and run* ``sql``, reporting actuals and per-layer counters.

    Rows are produced and discarded (PostgreSQL EXPLAIN ANALYZE
    semantics); every side effect of execution — buffer traffic, WAL
    appends, checksum verifications, degradation incidents — lands in the
    report's per-layer section. ``session`` (default: the database's own)
    supplies the snapshot, so inside a block the plan sees its writes.
    """
    plan, limit, report = _plan(db, sql, session)
    node = report.root if limit is None else report.root.children[0]
    buffers_before = db.buffer.stats.snapshot()
    metrics_before = METRICS.snapshot()

    # The scan node is instrumented at batch granularity — the executor's
    # actual unit of work — so the report shows how many batches each node
    # produced alongside the row count. A LIMIT caps the batch size, so a
    # lazy scan (NN especially) never produces more rows than the limit
    # needs plus a partial batch.
    batch_size = None if limit is None else max(1, min(SETTINGS.batch_size, limit))
    scan_iter = _InstrumentedBatches(
        execute_plan_batches(plan, batch_size=batch_size)
    )
    top_iter = scan_iter
    if limit is not None:
        top_iter = _InstrumentedBatches(limit_batches(scan_iter, limit))

    run_started = time.perf_counter()
    for _batch in top_iter:
        pass
    report.execution_ms = (time.perf_counter() - run_started) * 1000.0

    for reported, measured in ((node, scan_iter), (report.root, top_iter)):
        reported.actual_rows = measured.rows
        reported.actual_batches = measured.batches
        reported.wall_ms = measured.seconds * 1000.0
    report.analyzed = True
    report.buffers = db.buffer.stats.delta(buffers_before)
    report.metrics = METRICS.delta(metrics_before, METRICS.snapshot())
    return report
