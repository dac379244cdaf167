"""Per-layer metrics from one traced counted pass.

Inputs are the joined span list (:mod:`tracing`), the program's counter
deltas over the pass (``repro.obs.METRICS`` names), and the latencies the
load generator observed. Layers are module names. Every number is per
measured operation unless its name says otherwise (``_per_plan``,
``_per_row``, ``_pct``, ``_p50``, ``_per_kop`` = per thousand operations).

Time metrics come in two kinds:

- ``*.self_ms``, ``server.net.wire_ms``, ``server.manager.queue_ms``,
  ``server.session.wait_ms`` and ``storage.wal.flush_ms`` are **self
  times**: a span's busy time minus the busy time of the spans and
  aggregate calls it caused. Self times of all layers add up to the
  client-observed latency, which is what makes them a budget.
- every other ``*_ms`` is the **inclusive** busy time of one named entry
  point (``plan_query``, ``Table.fetch_many``, ``StorageNode.commit`` ...),
  children included — the number a change to that entry point moves.
"""

from __future__ import annotations

from statistics import median
from typing import Any

#: Span or aggregate name -> layer (a module of ``repro``).
LAYER_OF = {
    "ResilientClient.execute": "client",
    "SQLClient.execute": "server.net",
    "raw.request": "server.net",
    "SessionManager.execute": "server.manager",
    "Session.execute": "server.session",
    "Database.execute": "engine.sql",
    "plan_query": "engine.planner",
    "execute_plan_batches": "engine.executor",
    "TableIndex.scan": "engine.table",
    "TableIndex.nn_scan": "engine.table",
    "Table.fetch_many": "engine.table",
    "Table.insert": "engine.table",
    "SPGiSTIndex.search": "core.tree",
    "SPGiSTIndex.nn_search": "core.tree",
    "SPGiSTIndex.insert": "core.tree",
    "BufferPool.fetch": "storage.buffer",
    "FileDiskManager.read_page": "storage.filedisk",
    "FileDiskManager.write_page": "storage.filedisk",
    "FileDiskManager.sync": "storage.filedisk",
    "WriteAheadLog.flush": "storage.wal",
    "WriteAheadLog.commit": "storage.wal",
    "StorageNode.commit": "replication",
    "StorageNode.apply_segment": "replication",
    "ReplicaSet.client_write": "replication",
    "Cluster.search": "cluster.router",
    "Cluster.nn_search": "cluster.router",
    "Cluster.insert": "cluster.router",
    "Router.execute_batches": "cluster.router",
    "Router.nn_merged": "cluster.router",
    "TwoPhaseCoordinator.write": "cluster.twopc",
    "PrepareJournal.prepare": "cluster.twopc",
}


def self_seconds_by_layer(spans: list[dict]) -> dict[str, float]:
    """Total self time per layer; sums to the busy time of the root spans."""
    child_busy: dict[int, float] = {}
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            child_busy[parent] = child_busy.get(parent, 0.0) + span["busy"]
    totals: dict[str, float] = {}
    for span in spans:
        own = span["busy"] - child_busy.get(span["id"], 0.0) - span.get("agg_top", 0.0)
        layer = LAYER_OF[span["name"]]
        totals[layer] = totals.get(layer, 0.0) + own
        for name, (_count, _busy, self_time) in span.get("agg", {}).items():
            layer = LAYER_OF[name]
            totals[layer] = totals.get(layer, 0.0) + self_time
    return totals


def _counter(counters: dict[str, float], prefix: str) -> float:
    """Sum a (possibly labelled) counter family, histogram samples excluded."""
    return sum(
        value for name, value in counters.items()
        if name == prefix or name.startswith(prefix + "{")
    )


def _pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0


def _p50_ms(values: list[float]) -> float:
    return median(values) * 1000.0 if values else 0.0


def per_layer_metrics(
    spans: list[dict],
    counters: dict[str, float],
    ops: int,
    latencies: list[tuple[str, float]],
    traced_ops_s: float,
    untraced_ops_s: float,
) -> tuple[dict[str, float], dict[str, float]]:
    """``(metrics, self_ms_by_layer)`` for one traced pass of ``ops`` operations."""
    by_name: dict[str, list[dict]] = {}
    by_id: dict[int, dict] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
        by_id[span["id"]] = span

    def inclusive_ms(name: str) -> float:
        return sum(s["busy"] for s in by_name.get(name, ())) / ops * 1000.0

    def agg(name: str, field: int, under: str | None = None) -> float:
        """Sum one field (0 count, 1 busy, 2 self) of an aggregate call."""
        return sum(
            s["agg"][name][field]
            for s in (spans if under is None else by_name.get(under, ()))
            if name in s.get("agg", ())
        )

    def per_op(prefix: str) -> float:
        return _counter(counters, prefix) / ops

    def class_p50(*classes: str) -> float:
        return _p50_ms([seconds for cls, seconds in latencies if cls in classes])

    self_s = self_seconds_by_layer(spans)
    self_ms = {layer: seconds / ops * 1000.0 for layer, seconds in sorted(self_s.items())}

    plans = by_name.get("plan_query", [])
    rows_returned = sum(s.get("n", 0) for s in by_name.get("execute_plan_batches", ()))
    tids_fetched = sum(s.get("n", 0) for s in by_name.get("Table.fetch_many", ()))
    node_lookups = _counter(counters, "node_cache_hits_total") + _counter(counters, "node_cache_misses_total")
    buffer_fetches = _counter(counters, "buffer_hits_total") + _counter(counters, "buffer_misses_total")
    routed = _counter(counters, "cluster_single_shard_queries_total") + _counter(
        counters, "cluster_scatter_queries_total")
    two_phase = by_name.get("TwoPhaseCoordinator.write", [])
    fast_path = [
        s["busy"] for s in by_name.get("ReplicaSet.client_write", ())
        if by_id.get(s["parent"], {}).get("name") == "Cluster.insert"
    ]
    searches = by_name.get("Cluster.search", ())

    metrics = {
        "client.self_ms": self_ms.get("client", 0.0),
        "client.retries_per_kop": per_op("client_retries_total") * 1000.0,
        "client.eq_ms_p50": class_p50("eq"),
        "client.scan_ms_p50": class_p50("prefix", "regex"),
        "client.read_ms_p50": class_p50("read"),
        "client.write_ms_p50": class_p50("write"),
        "server.net.wire_ms": self_ms.get("server.net", 0.0),
        "server.manager.queue_ms": self_ms.get("server.manager", 0.0),
        "server.manager.dedup_hits_per_kop": per_op("server_dedup_hits_total") * 1000.0,
        "server.session.wait_ms": self_ms.get("server.session", 0.0),
        "server.session.lock_waits_per_kop": per_op("lock_waits_total") * 1000.0,
        "engine.sql.self_ms": self_ms.get("engine.sql", 0.0),
        "engine.sql.total_ms": inclusive_ms("Database.execute"),
        "engine.planner.plan_ms": inclusive_ms("plan_query"),
        "engine.planner.page_fetches_per_plan":
            agg("BufferPool.fetch", 0, under="plan_query") / len(plans) if plans else 0.0,
        "engine.planner.node_reads_per_plan":
            sum(s.get("n", 0) for s in plans) / len(plans) if plans else 0.0,
        "engine.executor.self_ms": self_ms.get("engine.executor", 0.0),
        "engine.executor.rows_returned": rows_returned / ops,
        "engine.executor.tuples_fetched_per_row": tids_fetched / rows_returned if rows_returned else 0.0,
        "engine.table.heap_fetch_ms": inclusive_ms("Table.fetch_many"),
        "engine.table.insert_ms": inclusive_ms("Table.insert"),
        "core.tree.search_ms": inclusive_ms("SPGiSTIndex.search"),
        "core.tree.insert_ms": inclusive_ms("SPGiSTIndex.insert"),
        "core.tree.nn_ms": inclusive_ms("SPGiSTIndex.nn_search"),
        "core.tree.nodes_visited": per_op("spgist_nodes_visited_total"),
        "core.tree.leaf_splits_per_kop": per_op("spgist_leaf_splits_total") * 1000.0,
        "storage.nodecache.lookups": node_lookups / ops,
        "storage.nodecache.hit_pct": _pct(_counter(counters, "node_cache_hits_total"), node_lookups),
        "storage.nodecache.invalidations": per_op("node_cache_invalidations_total"),
        "storage.buffer.fetches": buffer_fetches / ops,
        "storage.buffer.hit_pct": _pct(_counter(counters, "buffer_hits_total"), buffer_fetches),
        "storage.buffer.misses": per_op("buffer_misses_total"),
        "storage.buffer.evictions": per_op("buffer_evictions_total"),
        "storage.buffer.fetch_ms": agg("BufferPool.fetch", 1) / ops * 1000.0,
        "storage.filedisk.reads": per_op("disk_reads_total"),
        "storage.filedisk.read_ms": agg("FileDiskManager.read_page", 1) / ops * 1000.0,
        "storage.filedisk.write_ms": agg("FileDiskManager.write_page", 1) / ops * 1000.0,
        "storage.filedisk.kb_read": per_op("disk_bytes_read_total") / 1024.0,
        "storage.filedisk.kb_written": per_op("disk_bytes_written_total") / 1024.0,
        "storage.filedisk.sync_ms": inclusive_ms("FileDiskManager.sync"),
        "storage.filedisk.checksum_verifications": per_op("checksum_verifications_total"),
        "storage.wal.kb": per_op("wal_bytes_total") / 1024.0,
        "storage.wal.flush_ms": self_ms.get("storage.wal", 0.0),
        "storage.wal.commits": per_op("wal_commits_total"),
        "replication.commit_ms": inclusive_ms("StorageNode.commit"),
        "replication.ack_ms": inclusive_ms("StorageNode.apply_segment"),
        "replication.segments": per_op("replication_segments_shipped_total"),
        "cluster.router.self_ms": self_ms.get("cluster.router", 0.0),
        "cluster.router.shards_visited":
            _counter(counters, "cluster_shards_visited_total") / routed if routed else 0.0,
        "cluster.router.single_shard_pct": _pct(_counter(counters, "cluster_single_shard_queries_total"), routed),
        "cluster.point_ms_p50": _p50_ms([s["busy"] for s in searches if s.get("tag") == "@"]),
        "cluster.window_ms_p50": _p50_ms([s["busy"] for s in searches if s.get("tag") == "^"]),
        "cluster.nn_ms_p50": _p50_ms([s["busy"] for s in by_name.get("Cluster.nn_search", ())]),
        "cluster.twopc.commit_ms_p50": _p50_ms([s["busy"] for s in two_phase]),
        "cluster.twopc.fastpath_write_ms_p50": _p50_ms(fast_path),
        "cluster.twopc.prepare_ms":
            sum(s["busy"] for s in by_name.get("PrepareJournal.prepare", ())) / len(two_phase) * 1000.0
            if two_phase else 0.0,
        "obs.trace_overhead_pct": _pct(untraced_ops_s - traced_ops_s, untraced_ops_s),
    }
    return metrics, self_ms


def trace_document(
    workload: str, seed: int, ops: int, mean_op_ms: float,
    self_ms: dict[str, float], spans: list[dict],
) -> dict[str, Any]:
    """What ``out/trace-<workload>.json`` holds (see README, "Reading a trace")."""
    first = min((s["start"] for s in spans), default=0.0)
    for span in spans:
        span["start"] -= first
        span["end"] -= first
    return {
        "workload": workload,
        "seed": seed,
        "ops": ops,
        "mean_op_ms": mean_op_ms,
        "self_ms_by_layer": self_ms,
        "self_ms_sum": sum(self_ms.values()),
        "layer_of": LAYER_OF,
        "spans": sorted(spans, key=lambda s: (s["stmt"] is None, s["stmt"], s["start"])),
    }
