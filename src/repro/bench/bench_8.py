"""Batch read path + online repack macro-benchmark (BENCH_8.json).

Four sections, one JSON report:

- ``scan`` — the headline gate. A scan-heavy mixed workload (full seq
  scans, predicate scans, index equality probes, projected selects) over
  an MVCC table with version churn, run twice: through the *pre-batching*
  tuple-at-a-time pipeline and through :func:`execute_plan_batches`. The
  baseline is reconstructed explicitly (per-slot ``TupleId`` construction,
  a ``HeapTupleSatisfiesMVCC`` walk per row, generator chains, a per-row
  projection tuple) because the live row path now shares the optimized
  table layer — the same reconstruction precedent as perfgate's
  ``_disable_node_cache``. Both sides read the identical table under one
  snapshot and must produce identical row counts.
- ``sweep`` — the same batched workload at batch sizes {1, 7, 64, 1024}
  plus the engine default, for the EXPERIMENTS.md sensitivity table.
  Every batch size must produce the same row counts.
- ``repack`` — churn-degrades a trie index (two of every three items
  deleted), then times one full ``repack_online()`` pass; reports the
  fill factor before/after (gate: ≥ 0.90 after) and re-verifies the tree
  with ``spgist_check`` plus a survivor search sweep.
- ``locks`` — the wait-path micro-benchmark: W threads ping-ponging an
  EXCLUSIVE key for R rounds. Each blocked waiter sleeps on its own
  condition, so a release wakes exactly the thread whose verdict changed:
  ``wakeups`` must stay at one per wait. The committed BENCH_8.json also
  keeps the count the removed single-condition ``notify_all`` design
  produced for the identical storm (``locks.broadcast.wakeups``, every
  release waking all N parked waiters); the gate compares against it.

Wall-clock *ratios* are gated (both sides measured in-process on the same
machine); row counts, fill factors, and wakeup orderings are
deterministic and gated exactly by ``tests/bench/test_batch_gate.py``.

CLI::

    PYTHONPATH=src python -m repro.bench.bench_8 --out BENCH_8.json
    PYTHONPATH=src python -m repro.bench.bench_8 --quick
"""

from __future__ import annotations

import json
import threading
import time
from operator import itemgetter
from typing import Any, Callable, Iterator

from repro.core.tree import SPGiSTIndex
from repro.costmodel import CPU_OPS
from repro.engine.catalog import default_catalog
from repro.engine.cost import seqscan_cost
from repro.engine.executor import execute_plan_batches, execute_plan_rows
from repro.engine.planner import IndexScanPlan, Predicate, SeqScanPlan
from repro.engine.table import Column, Table
from repro.engine.txn import Snapshot, TransactionManager
from repro.indexes import TrieIndex
from repro.resilience.check import spgist_check
from repro.server.locks import LockManager, LockMode, LockOwner
from repro.settings import SETTINGS
from repro.storage import BufferPool, DiskManager
from repro.workloads import random_words

#: Benchmark schema version stamped into the JSON.
SCHEMA = "bench8-v1"

#: The satellite-mandated sweep points, plus the engine default at run time.
SWEEP_BATCH_SIZES = (1, 7, 64, 1024)

#: Scale presets: quick is re-run in-process by the CI gate, full is the
#: committed headline. ``churn`` rows are inserted and two-thirds MVCC
#: deleted (left unvacuumed) so visibility filtering does real work.
#: ``passes`` are interleaved baseline/batched repetitions; per-shape wall
#: is the minimum across passes (min-of-k filters scheduler/GC noise out
#: of a ratio gate, the standard micro-bench practice).
SCALES = {
    "quick": {"rows": 4000, "churn": 1200, "probes": 30, "passes": 4},
    "full": {"rows": 12000, "churn": 3600, "probes": 50, "passes": 7},
}


# -- workload table --------------------------------------------------------------


def _build_table(rows: int, churn: int, seed: int = 0) -> Table:
    """An MVCC words table with a trie index and leftover dead versions.

    Base rows are frozen (visible to every snapshot); churn rows are
    inserted by committed transactions and two of every three immediately
    deleted by *other* committed transactions. Nothing is vacuumed, so a
    scan walks ``rows + churn`` versions and must discard the dead ones —
    with many distinct ``(xmin, xmax)`` stamps, which is exactly the
    regime the stamp-memoized batch visibility path is built for.
    """
    txn_manager = TransactionManager()
    table = Table(
        "bench8",
        [Column("key", "varchar"), Column("id", "int")],
        BufferPool(DiskManager(), capacity=256),
        default_catalog(),
        txn=txn_manager,
    )
    words = random_words(rows, seed=801 + seed)
    for i, word in enumerate(words):
        table.insert((word, i))
    extra = random_words(churn, seed=802 + seed)
    tids = []
    chunk = 50  # one committing transaction per 50-row chunk
    for base in range(0, len(extra), chunk):
        txn = txn_manager.begin()
        for i, word in enumerate(extra[base:base + chunk], start=base):
            tids.append(table.insert((word, rows + i), txn=txn))
        txn_manager.commit(txn)
    doomed = [tid for i, tid in enumerate(tids) if i % 3 != 0]
    for base in range(0, len(doomed), chunk):  # one third survives
        txn = txn_manager.begin()
        for tid in doomed[base:base + chunk]:
            table.mvcc_delete(tid, txn)
        txn_manager.commit(txn)
    table.create_index("bench8_idx", "key", "SP_GiST", "SP_GiST_trie")
    table.analyze()
    return table


def _plans(
    table: Table, predicate: Predicate | None, snapshot: Snapshot
) -> tuple[Any, Any]:
    cost = seqscan_cost(table.heap_pages, len(table))
    seq = SeqScanPlan(table, predicate, cost)
    seq.snapshot = snapshot
    index_plan = None
    if predicate is not None:
        index_plan = IndexScanPlan(
            table, predicate, cost, index=table.indexes["bench8_idx"]
        )
        index_plan.snapshot = snapshot
    return seq, index_plan


# -- the reconstructed pre-batching pipeline -------------------------------------


def _baseline_scan(
    table: Table, snapshot: Snapshot
) -> Iterator[tuple[Any, tuple]]:
    """``Table.scan`` as it was before PR 8, verbatim semantics.

    One ``TupleId`` constructed per occupied slot, one full
    ``Snapshot.tuple_visible`` walk per version, one generator resume per
    row — the pipeline the batch executor replaced. Reconstructed here
    because the live ``Table.scan`` now rides the optimized page path, so
    it can no longer serve as its own before-measurement.
    """
    from repro.storage.heap import TupleId

    heap = table.heap
    for page_id in heap._page_ids:
        payload = heap.buffer.fetch(page_id)
        CPU_OPS.add(payload.live_count())
        for slot, tup in enumerate(payload.slots):
            if tup is not None and snapshot.tuple_visible(tup):
                yield TupleId(page_id, slot), tup.record


def _run_baseline(
    table: Table,
    snapshot: Snapshot,
    probes: list[str],
    check_probe: str,
) -> dict[str, Any]:
    """One pass of every query shape through the tuple-at-a-time pipeline."""
    shapes: dict[str, Any] = {}

    started = time.perf_counter()
    count = sum(1 for _ in _baseline_scan(table, snapshot))
    shapes["seq"] = {"wall": time.perf_counter() - started, "rows": count}

    position = table.column_index("key")
    operator = table.catalog.operators_named("=", "varchar")[0]
    started = time.perf_counter()
    count = sum(
        1
        for _tid, row in _baseline_scan(table, snapshot)
        if operator.apply(row[position], check_probe)
    )
    shapes["filter"] = {"wall": time.perf_counter() - started, "rows": count}

    started = time.perf_counter()
    count = 0
    for probe in probes:
        plan = IndexScanPlan(
            table,
            Predicate("key", "=", probe),
            seqscan_cost(table.heap_pages, len(table)),
            index=table.indexes["bench8_idx"],
        )
        plan.snapshot = snapshot
        # execute_plan_rows *is* the pre-PR index-scan path: next(tids)
        # then a per-TID fetch with a per-row visibility walk.
        count += sum(1 for _ in execute_plan_rows(plan))
    shapes["index"] = {"wall": time.perf_counter() - started, "rows": count}

    started = time.perf_counter()
    projected = [
        (row[position],) for _tid, row in _baseline_scan(table, snapshot)
    ]
    shapes["project"] = {
        "wall": time.perf_counter() - started,
        "rows": len(projected),
    }
    return shapes


def _run_batched(
    table: Table,
    snapshot: Snapshot,
    probes: list[str],
    check_probe: str,
    batch_size: int,
) -> dict[str, Any]:
    """The same shapes through the batch executor at ``batch_size``."""
    shapes: dict[str, Any] = {}
    seq_plan, _ = _plans(table, None, snapshot)

    started = time.perf_counter()
    count = sum(
        len(batch)
        for batch in execute_plan_batches(seq_plan, batch_size=batch_size)
    )
    shapes["seq"] = {"wall": time.perf_counter() - started, "rows": count}

    filter_seq, _ = _plans(table, Predicate("key", "=", check_probe), snapshot)
    started = time.perf_counter()
    count = sum(
        len(batch)
        for batch in execute_plan_batches(filter_seq, batch_size=batch_size)
    )
    shapes["filter"] = {"wall": time.perf_counter() - started, "rows": count}

    started = time.perf_counter()
    count = 0
    for probe in probes:
        _seq, index_plan = _plans(table, Predicate("key", "=", probe), snapshot)
        count += sum(
            len(batch)
            for batch in execute_plan_batches(index_plan, batch_size=batch_size)
        )
    shapes["index"] = {"wall": time.perf_counter() - started, "rows": count}

    position = table.column_index("key")
    project = itemgetter(position)
    started = time.perf_counter()
    rows = 0
    for batch in execute_plan_batches(seq_plan, batch_size=batch_size):
        rows += len([(project(row),) for row in batch])
    shapes["project"] = {"wall": time.perf_counter() - started, "rows": rows}
    return shapes


def _min_passes(passes: list[dict[str, Any]]) -> dict[str, Any]:
    """Min wall across passes per shape; rows must agree pass-to-pass."""
    merged: dict[str, Any] = {}
    for shapes in passes:
        for name, shape in shapes.items():
            slot = merged.setdefault(
                name, {"wall": shape["wall"], "rows": shape["rows"]}
            )
            slot["wall"] = min(slot["wall"], shape["wall"])
            assert slot["rows"] == shape["rows"], f"unstable rows for {name}"
    return merged


def run_scan(scale_name: str, seed: int = 0) -> dict[str, Any]:
    """The headline baseline-vs-batched comparison at one scale."""
    import gc

    scale = SCALES[scale_name]
    table = _build_table(scale["rows"], scale["churn"], seed=seed)
    words = random_words(scale["rows"], seed=801 + seed)
    probes = [words[(i * 7) % len(words)] for i in range(scale["probes"])]
    check_probe = words[len(words) // 2]
    snapshot = table.txn.read_snapshot()

    baseline_passes: list[dict[str, Any]] = []
    batched_passes: list[dict[str, Any]] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        # Interleave the two pipelines so drift (thermal, scheduler) hits
        # both sides alike; min-of-k then discards the noisy repetitions.
        for _ in range(scale["passes"]):
            baseline_passes.append(
                _run_baseline(table, snapshot, probes, check_probe)
            )
            batched_passes.append(
                _run_batched(
                    table, snapshot, probes, check_probe, SETTINGS.batch_size
                )
            )
    finally:
        if gc_was_enabled:
            gc.enable()
    baseline = _min_passes(baseline_passes)
    batched = _min_passes(batched_passes)

    shapes: dict[str, Any] = {}
    base_wall = batch_wall = 0.0
    for name in baseline:
        b, o = baseline[name], batched[name]
        assert b["rows"] == o["rows"], (
            f"differential failure in shape {name}: "
            f"baseline={b['rows']} batched={o['rows']}"
        )
        shapes[name] = {
            "rows": b["rows"],
            "baseline_wall_seconds": b["wall"],
            "batched_wall_seconds": o["wall"],
            "speedup": round(b["wall"] / o["wall"], 3) if o["wall"] else 0.0,
        }
        base_wall += b["wall"]
        batch_wall += o["wall"]
    return {
        "scale": dict(scale) | {"batch": SETTINGS.batch_size},
        "shapes": shapes,
        "mixed": {
            "baseline_wall_seconds": base_wall,
            "batched_wall_seconds": batch_wall,
            "speedup": round(base_wall / batch_wall, 3) if batch_wall else 0.0,
        },
    }


def run_sweep(scale_name: str, seed: int = 0) -> dict[str, Any]:
    """The batched workload at each sweep batch size (plus the default)."""
    import gc

    scale = SCALES[scale_name]
    table = _build_table(scale["rows"], scale["churn"], seed=seed)
    words = random_words(scale["rows"], seed=801 + seed)
    probes = [words[(i * 7) % len(words)] for i in range(scale["probes"])]
    check_probe = words[len(words) // 2]
    snapshot = table.txn.read_snapshot()

    sizes = sorted(set(SWEEP_BATCH_SIZES) | {SETTINGS.batch_size})
    points: dict[str, Any] = {}
    reference_rows: dict[str, int] | None = None
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for size in sizes:
            shapes = _min_passes(
                [
                    _run_batched(table, snapshot, probes, check_probe, size)
                    for _ in range(scale["passes"])
                ]
            )
            rows = {name: shape["rows"] for name, shape in shapes.items()}
            if reference_rows is None:
                reference_rows = rows
            assert rows == reference_rows, (
                f"batch size {size} changed results: {rows} != {reference_rows}"
            )
            points[str(size)] = {
                "wall_seconds": sum(s["wall"] for s in shapes.values()),
                "rows": sum(rows.values()),
            }
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "scale": dict(scale) | {"default_batch": SETTINGS.batch_size},
        "batch_sizes": points,
        "rows_identical": True,
    }


# -- online repack micro-benchmark -----------------------------------------------


def run_repack(words: int = 5000, seed: int = 0) -> dict[str, Any]:
    """Degrade a trie by churn, then time one full ``repack_online`` pass."""
    pool = BufferPool(DiskManager(), capacity=512)
    index: SPGiSTIndex = TrieIndex(pool, bucket_size=4)
    items = random_words(words, seed=803 + seed)
    index.insert_many([(word, i) for i, word in enumerate(items)])
    fill_loaded = index.store.fill_factor()
    for i, word in enumerate(items):
        if i % 3 != 0:
            index.delete(word, i)
    fill_degraded = index.store.fill_factor()

    started = time.perf_counter()
    stats = index.repack_online()
    wall = time.perf_counter() - started

    report = spgist_check(index)
    survivors = [(w, i) for i, w in enumerate(items) if i % 3 == 0]
    from repro.core.external import Query

    missing = sum(
        1
        for word, i in survivors
        if (word, i) not in index.search_list(Query("=", word))
    )
    return {
        "words": words,
        "survivors": len(survivors),
        "fill_loaded": round(fill_loaded, 4),
        "fill_degraded": round(fill_degraded, 4),
        "fill_after": round(stats.fill_after, 4),
        "subtrees_repacked": stats.subtrees_repacked,
        "nodes_moved": stats.nodes_moved,
        "pages_freed": stats.pages_freed,
        "wall_seconds": wall,
        "check_ok": report.ok,
        "missing_after_repack": missing,
    }


# -- lock wait-path micro-benchmark ----------------------------------------------


def _lock_pingpong(manager: LockManager, threads: int, rounds: int) -> float:
    """``threads`` workers each take/release one EXCLUSIVE key ``rounds``
    times; returns the wall time of the whole contention storm.

    The ``sleep(0)`` inside the critical section yields the GIL while the
    lock is held — without it CPython's timeslice lets each worker finish
    many rounds unopposed and nobody ever parks, which would measure
    nothing. With it, the other workers pile into the wait queue on every
    round, which is exactly the parked-herd shape the wakeup count is
    about.
    """
    key = ("table", "bench8")
    barrier = threading.Barrier(threads + 1)
    errors: list[BaseException] = []

    def worker(i: int) -> None:
        owner = LockOwner(f"bench8-w{i}", i + 1)
        try:
            barrier.wait()
            for _ in range(rounds):
                manager.acquire(owner, key, LockMode.EXCLUSIVE)
                time.sleep(0)  # yield while holding: queue the herd
                manager.release_all(owner)
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    pool = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(threads)
    ]
    for thread in pool:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    return wall


def run_locks(threads: int = 8, rounds: int = 60) -> dict[str, Any]:
    """Wakeups the per-waiter wait path spends on one contention storm."""
    manager = LockManager()
    wall = _lock_pingpong(manager, threads, rounds)
    stats = manager.stats()
    return {
        "threads": threads,
        "rounds": rounds,
        "per_waiter": {
            "wall_seconds": wall,
            "wakeups": stats["wakeups"],
            "waits": stats["waits"],
            "grants": stats["grants"],
        },
    }


# -- report ----------------------------------------------------------------------


def run(quick_only: bool = False, seed: int = 0) -> dict[str, Any]:
    """Run every section; returns the BENCH_8 report dict."""
    report: dict[str, Any] = {"schema": SCHEMA, "seed": seed}
    report["scan"] = {"quick": run_scan("quick", seed=seed)}
    report["sweep"] = run_sweep("quick", seed=seed)
    report["repack"] = run_repack(seed=seed)
    report["locks"] = run_locks()
    if not quick_only:
        report["scan"]["full"] = run_scan("full", seed=seed)
    return report


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: run the suite and write/print the JSON report."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--quick", action="store_true", help="skip the full-scale scan section"
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed offset (0 = the committed BENCH_8 baseline)",
    )
    args = parser.parse_args(argv)

    report = run(quick_only=args.quick, seed=args.seed)
    for scale_name, section in report["scan"].items():
        mixed = section["mixed"]
        print(f"[{scale_name}] scan-heavy mixed speedup: {mixed['speedup']:.2f}x")
        for name, shape in section["shapes"].items():
            print(
                f"  {name:8s} {shape['speedup']:5.2f}x  "
                f"wall {shape['baseline_wall_seconds']:.3f}s -> "
                f"{shape['batched_wall_seconds']:.3f}s  rows {shape['rows']}"
            )
    print("[sweep] batch-size sensitivity:")
    for size, point in report["sweep"]["batch_sizes"].items():
        print(f"  batch {size:>5s}: {point['wall_seconds']:.3f}s")
    repack = report["repack"]
    print(
        f"[repack] fill {repack['fill_degraded']:.2f} -> "
        f"{repack['fill_after']:.2f} in {repack['wall_seconds']:.3f}s "
        f"({repack['pages_freed']} pages freed, check "
        f"{'OK' if repack['check_ok'] else 'FAILED'})"
    )
    locks = report["locks"]["per_waiter"]
    print(f"[locks] {locks['wakeups']} wakeups for {locks['waits']} waits")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
