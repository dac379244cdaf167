"""Plan execution: turn an access path into a row stream.

Index scans resolve TIDs through the heap and re-check the predicate with
the operator procedure (harmless for our exact indexes, and it keeps the
executor correct if a lossy index is ever registered). NN plans yield rows
in non-decreasing distance order; the caller applies LIMIT by slicing the
iterator — the paper's "number of NNs controlled by the application using
cursors".

Resilience: an index scan that hits corruption (a failed page checksum or a
broken structural invariant) does not fail the query. The executor records
the incident, quarantines the index so the planner stops choosing it, and
finishes the query with a sequential scan — PostgreSQL operators call this
pattern "degrade and REINDEX later".

Batching (PR 8): the primary read path is batch-at-a-time.
:func:`execute_plan_batches` yields lists of up to ``SETTINGS.batch_size``
rows; visibility and predicate filtering run as list comprehensions over
whole heap pages / TID chunks instead of per-row generator resumes, which
is where the tuple-at-a-time path spent most of its Python overhead.
:func:`execute_plan` is a thin flattening wrapper, so every existing
caller gets the batched engine transparently; the original per-row
implementation survives as :func:`execute_plan_rows` — the differential
oracle's reference semantics (batch output must equal it row-for-row for
every batch size, including 1).
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Iterator

from repro.engine.planner import (
    IndexScanPlan,
    NNIndexScanPlan,
    NNSortScanPlan,
    OnDegrade,
    Plan,
    SeqScanPlan,
    quarantine_index,
)
from repro.errors import IndexCorruptionError, PageChecksumError, PlannerError
from repro.geometry.distance import (
    euclidean,
    hamming,
    point_to_segment_distance,
)
from repro.settings import SETTINGS


def execute_plan(
    plan: Plan, on_degrade: OnDegrade | None = None
) -> Iterator[tuple]:
    """Yield the rows the plan produces, in plan order.

    ``on_degrade`` (optional) is invoked if an index scan hits corruption
    mid-flight and the executor falls back to the heap.

    This is now a flattening wrapper over :func:`execute_plan_batches`:
    rows come out one at a time, but are produced batch-at-a-time inside.
    """
    batches = execute_plan_batches(plan, on_degrade)  # dispatch eagerly
    return (row for batch in batches for row in batch)


def execute_plan_batches(
    plan: Plan,
    on_degrade: OnDegrade | None = None,
    batch_size: int | None = None,
) -> Iterator[list[tuple]]:
    """Yield the plan's rows as non-empty lists of ≤ ``batch_size`` rows.

    Concatenating the batches reproduces :func:`execute_plan_rows` output
    exactly — same rows, same order, same degradation behaviour — for any
    ``batch_size`` ≥ 1 (the differential oracle sweeps this). ``None``
    resolves to ``SETTINGS.batch_size`` at call time.
    """
    if batch_size is None:
        batch_size = SETTINGS.batch_size
    if batch_size < 1:
        raise PlannerError(f"batch_size must be >= 1, got {batch_size}")
    if isinstance(plan, (NNIndexScanPlan, NNSortScanPlan)):
        return _nn_batches(plan, on_degrade, batch_size)
    if isinstance(plan, IndexScanPlan):
        return _index_scan_batches(plan, on_degrade, batch_size)
    if isinstance(plan, SeqScanPlan):
        return _seq_scan_batches(plan, batch_size)
    raise PlannerError(f"unknown plan node {type(plan).__name__}")


def limit_batches(
    batches: Iterator[list[tuple]], limit: int
) -> Iterator[list[tuple]]:
    """LIMIT over a batch stream: truncate the batch that crosses it."""
    if limit <= 0:
        return
    for batch in batches:
        if len(batch) >= limit:
            yield batch[:limit]
            return
        limit -= len(batch)
        yield batch


def execute_plan_rows(
    plan: Plan, on_degrade: OnDegrade | None = None
) -> Iterator[tuple]:
    """The original tuple-at-a-time executor, one generator resume per row.

    Kept as the reference semantics the batched path is differentially
    tested against; production callers go through :func:`execute_plan`.
    """
    if isinstance(plan, (NNIndexScanPlan, NNSortScanPlan)):
        return _execute_nn(plan, on_degrade)
    if isinstance(plan, IndexScanPlan):
        return _execute_index_scan(plan, on_degrade)
    if isinstance(plan, SeqScanPlan):
        return _execute_seq_scan(plan)
    raise PlannerError(f"unknown plan node {type(plan).__name__}")


def _predicate_checker(plan: Plan) -> Callable[[tuple], bool]:
    predicate = plan.predicate
    if predicate is None:
        return lambda row: True
    table = plan.table
    position = table.column_index(predicate.column)
    column = table.columns[position]
    operator = table.catalog.operators_named(predicate.op, column.type_name)[0]
    operand = predicate.operand
    return lambda row: operator.apply(row[position], operand)


def _plan_snapshot(plan: Plan) -> Any:
    """Resolve the snapshot this plan reads through, exactly once.

    A plan stamped by an open transaction carries that transaction's
    snapshot; otherwise take a fresh statement snapshot now, so every
    heap fetch of this one execution — including the degradation
    fallback — sees the same database state.
    """
    if plan.snapshot is not None:
        return plan.snapshot
    return plan.table.current_snapshot()


def _execute_seq_scan(plan: SeqScanPlan) -> Iterator[tuple]:
    check = _predicate_checker(plan)
    snapshot = _plan_snapshot(plan)
    for _tid, row in plan.table.scan(snapshot):
        if check(row):
            yield row


def _execute_index_scan(
    plan: IndexScanPlan, on_degrade: OnDegrade | None = None
) -> Iterator[tuple]:
    check = _predicate_checker(plan)
    predicate = plan.predicate
    assert predicate is not None
    snapshot = _plan_snapshot(plan)
    emitted: set[Any] = set()
    tids = plan.index.scan(predicate.op, predicate.operand)
    while True:
        try:
            tid = next(tids)
        except StopIteration:
            return
        except (IndexCorruptionError, PageChecksumError) as exc:
            quarantine_index(plan.index, "index-scan-degraded", exc, on_degrade)
            break
        # Index entries point at every heap version; the snapshot-aware
        # fetch filters out the invisible ones (PostgreSQL's division of
        # labour between the access method and the heap).
        row = plan.table.fetch(tid, snapshot)
        if row is not None and check(row):
            emitted.add(tid)
            yield row
    # Graceful degradation: the index is unreadable mid-scan, but the heap
    # is fine — finish with a sequential scan under the SAME snapshot,
    # skipping rows already produced, so the query still returns a
    # complete, correct result.
    for tid, row in plan.table.scan(snapshot):
        if tid in emitted:
            continue
        if check(row):
            yield row


# -- batch-at-a-time scan nodes -------------------------------------------------


def _rechunk(
    pending: list[tuple], batch_size: int
) -> Iterator[list[tuple]]:
    """Drain full batches off the front of ``pending`` (in place)."""
    while len(pending) >= batch_size:
        yield pending[:batch_size]
        del pending[:batch_size]


def _chunked(rows: Iterator[tuple], batch_size: int) -> Iterator[list[tuple]]:
    """Slice a row iterator into non-empty fixed-size batches."""
    while True:
        batch = list(islice(rows, batch_size))
        if not batch:
            return
        yield batch


def _seq_scan_batches(
    plan: SeqScanPlan, batch_size: int
) -> Iterator[list[tuple]]:
    """Seq scan: one visibility+predicate comprehension per heap page.

    Heap pages rarely match ``batch_size`` exactly, so matched rows are
    re-chunked through a pending buffer; row order stays physical order.
    """
    snapshot = _plan_snapshot(plan)
    check = _predicate_checker(plan)
    unfiltered = plan.predicate is None
    pending: list[tuple] = []
    for page in plan.table.scan_batches(snapshot):
        if unfiltered:
            pending.extend([row for _tid, row in page])
        else:
            pending.extend([row for _tid, row in page if check(row)])
        yield from _rechunk(pending, batch_size)
    if pending:
        yield pending


def _pull_tid_chunk(
    tids: Iterator[Any],
    batch_size: int,
    plan: Plan,
    incident: str,
    on_degrade: OnDegrade | None,
) -> tuple[list[Any], bool]:
    """Pull up to ``batch_size`` TIDs; returns (chunk, degraded).

    Corruption raised mid-chunk quarantines the index and returns the
    TIDs pulled so far — they are still valid results and are resolved
    before the caller switches to the heap fallback.
    """
    chunk: list[Any] = []
    try:
        for tid in islice(tids, batch_size):
            chunk.append(tid)
    except (IndexCorruptionError, PageChecksumError) as exc:
        quarantine_index(plan.index, incident, exc, on_degrade)
        return chunk, True
    return chunk, False


def _fallback_seq_batches(
    plan: Plan,
    snapshot: Any,
    emitted: set[Any],
    check: Callable[[tuple], bool],
    batch_size: int,
) -> Iterator[list[tuple]]:
    """Finish a degraded index scan from the heap, skipping emitted TIDs."""
    pending: list[tuple] = []
    for page in plan.table.scan_batches(snapshot):
        pending.extend(
            row for tid, row in page if tid not in emitted and check(row)
        )
        yield from _rechunk(pending, batch_size)
    if pending:
        yield pending


def _index_scan_batches(
    plan: IndexScanPlan,
    on_degrade: OnDegrade | None,
    batch_size: int,
) -> Iterator[list[tuple]]:
    """Index scan: TID chunks resolved through one fetch_many per batch."""
    check = _predicate_checker(plan)
    predicate = plan.predicate
    assert predicate is not None
    snapshot = _plan_snapshot(plan)
    emitted: set[Any] = set()
    tids = plan.index.scan(predicate.op, predicate.operand)
    while True:
        chunk, degraded = _pull_tid_chunk(
            tids, batch_size, plan, "index-scan-degraded", on_degrade
        )
        batch: list[tuple] = []
        # The index may point at invisible versions and (for lossy
        # opclasses) false positives — fetch_many applies visibility,
        # then the operator recheck runs over the resolved array.
        for tid, row in plan.table.fetch_many(chunk, snapshot):
            if check(row):
                emitted.add(tid)
                batch.append(row)
        if batch:
            yield batch
        if degraded:
            break
        if len(chunk) < batch_size:
            return
    yield from _fallback_seq_batches(plan, snapshot, emitted, check, batch_size)


def _nn_batches(
    plan: Plan,
    on_degrade: OnDegrade | None,
    batch_size: int,
) -> Iterator[list[tuple]]:
    """NN scan: distance-ordered TID chunks; batching preserves the order."""
    predicate = plan.predicate
    assert predicate is not None
    snapshot = _plan_snapshot(plan)
    if isinstance(plan, NNIndexScanPlan):
        emitted: set[Any] = set()
        tids = plan.index.nn_scan(predicate.operand)
        while True:
            chunk, degraded = _pull_tid_chunk(
                tids, batch_size, plan, "nn-scan-degraded", on_degrade
            )
            resolved = plan.table.fetch_many(chunk, snapshot)
            emitted.update(tid for tid, _row in resolved)
            if resolved:
                yield [row for _tid, row in resolved]
            if degraded:
                break
            if len(chunk) < batch_size:
                return
        yield from _chunked(
            _nn_sort_scan(plan, skip=emitted, snapshot=snapshot), batch_size
        )
        return
    yield from _chunked(_nn_sort_scan(plan, snapshot=snapshot), batch_size)


def _nn_distance_function(type_name: str) -> Callable[[Any, Any], float]:
    if type_name == "varchar":
        return lambda value, query: float(hamming(value, query))
    if type_name == "point":
        return euclidean
    if type_name == "lseg":
        return lambda value, query: point_to_segment_distance(query, value)
    raise PlannerError(f"no NN distance function for type {type_name!r}")


def _execute_nn(
    plan: Plan, on_degrade: OnDegrade | None = None
) -> Iterator[tuple]:
    predicate = plan.predicate
    assert predicate is not None
    snapshot = _plan_snapshot(plan)
    if isinstance(plan, NNIndexScanPlan):
        emitted: set[Any] = set()
        tids = plan.index.nn_scan(predicate.operand)
        while True:
            try:
                tid = next(tids)
            except StopIteration:
                return
            except (IndexCorruptionError, PageChecksumError) as exc:
                quarantine_index(plan.index, "nn-scan-degraded", exc, on_degrade)
                break
            row = plan.table.fetch(tid, snapshot)
            if row is not None:
                emitted.add(tid)
                yield row
        # Graceful degradation, mirroring _execute_index_scan: the index
        # died mid-stream, but every row it already produced was one of the
        # true nearest neighbours, so finishing with the sort-scan path —
        # skipping those TIDs — continues the stream in non-decreasing
        # distance order with no duplicates and no gaps.
        yield from _nn_sort_scan(plan, skip=emitted, snapshot=snapshot)
        return
    # Fallback: materialize and sort by distance (no NN-capable index).
    yield from _nn_sort_scan(plan, snapshot=snapshot)


def _nn_sort_scan(
    plan: Plan, skip: set[Any] | None = None, snapshot: Any = None
) -> Iterator[tuple]:
    """Heap-scan NN: materialize distances and sort (``skip`` = TIDs done)."""
    predicate = plan.predicate
    assert predicate is not None
    table = plan.table
    position = table.column_index(predicate.column)
    column = table.columns[position]
    distance = _nn_distance_function(column.type_name)
    if snapshot is None:
        snapshot = _plan_snapshot(plan)
    rows = [
        (distance(row[position], predicate.operand), tid, row)
        for tid, row in table.scan(snapshot)
        if skip is None or tid not in skip
    ]
    rows.sort(key=lambda item: (item[0], item[1]))
    for _d, _tid, row in rows:
        yield row
