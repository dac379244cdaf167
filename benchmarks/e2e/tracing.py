"""Spans recorded from outside the program, for the traced run only.

Nothing under ``src/`` knows about this module. The ``install_*`` functions replace
the public entry points of each layer (module attributes and class
methods) with wrappers that record one span per call — name, start, end,
busy time, the span that caused it, and the statement it belongs to — into
an in-memory list that is written out when the run ends.

Three wrapper shapes cover every entry point:

- **call**: an ordinary function or method; one span per call.
- **iterator**: a generator (``execute_plan_batches``, ``TableIndex.scan``,
  ``SPGiSTIndex.search`` ...). The span opens at the first ``next()`` and
  closes at exhaustion or ``close()``; its *busy* time is the time spent
  inside the generator between resumption and the next yield, so a lazy
  consumer does not inflate it.
- **aggregate**: calls made hundreds of times per statement
  (``BufferPool.fetch``, ``FileDiskManager.read_page``/``write_page``).
  No span is recorded; the call's count, busy time and self time are
  folded into the enclosing span.

A statement crosses threads once, between ``SessionManager.execute`` (the
connection's handler thread) and ``Session.execute`` (a pool worker). The
first stamps the ``Session`` object with its span id and statement id; the
second, finding no enclosing span on its own thread, adopts them.

Self time is not computed here: :mod:`layers` derives it from the parent
links, which also handles the cross-thread and cross-process children.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter
from typing import Any, Callable, Iterator


class _Frame:
    """One in-flight call on a thread's stack."""

    __slots__ = ("id", "parent", "name", "stmt", "owner", "child", "agg", "agg_top", "tag", "n")

    def __init__(self, span_id: int, parent: int | None, name: str, stmt: int | None) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.stmt = stmt
        self.owner = self  # nearest enclosing frame that becomes a span
        self.child = 0.0  # busy time of nested aggregate calls
        self.agg: dict[str, list] | None = None  # name -> [count, busy, self]
        self.agg_top = 0.0  # busy time of aggregate calls made directly here
        self.tag: str | None = None
        self.n: float | None = None  # a count the wrapper was asked to take


class Tracer:
    """Per-process span recorder; one instance per traced process."""

    def __init__(self, id_base: int = 0) -> None:
        self.spans: list[dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(id_base + 1)
        self._stmts = itertools.count()
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def _open(self, name: str, link: tuple[int | None, int | None] | None = None) -> _Frame:
        stack = self._stack()
        if stack:
            top = stack[-1]
            frame = _Frame(next(self._ids), top.id, name, top.stmt)
        elif link is not None:
            frame = _Frame(next(self._ids), link[0], name, link[1])
        else:
            frame = _Frame(next(self._ids), None, name, None)
        return frame

    def _emit(self, frame: _Frame, start: float, end: float, busy: float) -> None:
        record: dict[str, Any] = {
            "id": frame.id,
            "parent": frame.parent,
            "stmt": frame.stmt,
            "name": frame.name,
            "start": start,
            "end": end,
            "busy": busy,
        }
        if frame.agg:
            record["agg"] = frame.agg
            record["agg_top"] = frame.agg_top
        if frame.tag is not None:
            record["tag"] = frame.tag
        if frame.n is not None:
            record["n"] = frame.n
        self.spans.append(record)

    def add_span(
        self, name: str, start: float, end: float, stmt: int | None = None, tag: str | None = None
    ) -> int:
        """Record a span measured by the caller (the raw-socket client)."""
        frame = _Frame(next(self._ids), None, name, stmt)
        frame.tag = tag
        self._emit(frame, start, end, end - start)
        return frame.id

    def reset(self) -> None:
        """Drop every finished span and restart statement numbering."""
        self.spans = []
        self._stmts = itertools.count()

    def dump(self, path: str) -> int:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)
        return len(self.spans)

    # -- wrapper factories -----------------------------------------------------

    def call(
        self,
        name: str,
        fn: Callable,
        *,
        root: bool = False,
        stamp: Callable[[tuple, int, int], None] | None = None,
        adopt: Callable[[tuple], tuple[int | None, int | None] | None] | None = None,
        tag: Callable[[tuple, dict], str] | None = None,
        size: Callable[[tuple], float] | None = None,
        probe: Callable[[], float] | None = None,
    ) -> Callable:
        """Wrap a plain callable: one span per call.

        ``root`` starts a new statement when no span encloses the call;
        ``stamp(args, span_id, stmt)`` publishes the ids for a thread
        hand-off and ``adopt(args)`` picks them up on the other side.
        ``size(args)`` or the movement of ``probe()`` across the call is
        kept as the span's ``n``.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            link = adopt(args) if adopt is not None and not stack else None
            frame = tracer._open(name, link)
            if root and frame.stmt is None:
                frame.stmt = next(tracer._stmts)
            if stamp is not None:
                stamp(args, frame.id, frame.stmt)
            if tag is not None:
                frame.tag = tag(args, kwargs)
            if size is not None:
                frame.n = size(args)
            before = probe() if probe is not None else 0.0
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if probe is not None:
                    frame.n = probe() - before
                tracer._emit(frame, start, end, end - start)

        return traced

    def iterator(
        self, name: str, fn: Callable, size: Callable[[Any], float] | None = None
    ) -> Callable:
        """Wrap a callable returning a generator/iterator: one span per stream.

        ``size(item)`` summed over the items is kept as the span's ``n``.
        """
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return tracer._drive(name, fn(*args, **kwargs), size)

        return traced

    def _drive(self, name: str, inner: Any, size: Callable[[Any], float] | None) -> Iterator[Any]:
        inner = iter(inner)
        stack = self._stack()
        frame: _Frame | None = None
        first = last = busy = total = 0.0
        try:
            while True:
                if frame is None:
                    frame = self._open(name)
                    first = perf_counter()
                stack.append(frame)
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    last = perf_counter()
                    stack.pop()
                    busy += last - start
                if size is not None:
                    total += size(item)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()
            if frame is not None:
                if size is not None:
                    frame.n = total
                self._emit(frame, first, last, busy)

    def aggregate(self, name: str, fn: Callable) -> Callable:
        """Wrap a hot callable: fold count/busy/self into the enclosing span."""
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            top = stack[-1]
            frame = _Frame(0, None, name, None)
            frame.owner = owner = top.owner
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = perf_counter() - start
                stack.pop()
                if top is owner:
                    owner.agg_top += busy
                else:
                    top.child += busy
                agg = owner.agg
                if agg is None:
                    agg = owner.agg = {}
                entry = agg.get(name)
                if entry is None:
                    agg[name] = [1, busy, busy - frame.child]
                else:
                    entry[0] += 1
                    entry[1] += busy
                    entry[2] += busy - frame.child

        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, holder: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``holder.attr`` and remember the original for :meth:`restore`."""
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back (the in-process workload needs it)."""
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)


def _node_reads() -> float:
    """Node-store reads so far (the engine mutex keeps this single-writer)."""
    from repro.obs import METRICS

    return METRICS.value("node_cache_hits_total") + METRICS.value("node_cache_misses_total")


def install_server_side(tracer: Tracer) -> None:
    """Wrap the serving, engine, index, storage and replication layers."""
    from repro.core.tree import SPGiSTIndex
    from repro.engine import sql as engine_sql
    from repro.engine.sql import Database
    from repro.engine.table import Table, TableIndex
    from repro.replication.node import StorageNode
    from repro.server.manager import SessionManager
    from repro.server.session import Session
    from repro.storage.buffer import BufferPool
    from repro.storage.filedisk import FileDiskManager
    from repro.storage.wal import WriteAheadLog

    def stamp(args: tuple, span_id: int, stmt: int) -> None:
        args[1]._e2e_link = (span_id, stmt)  # args = (manager, session, sql, ...)

    def adopt(args: tuple) -> tuple[int | None, int | None] | None:
        return getattr(args[0], "_e2e_link", None)  # args = (session, sql, ...)

    def statement_kind(args: tuple, kwargs: dict) -> str:
        return args[2].lstrip()[:6].upper()

    patch, call, iterator, aggregate = tracer.patch, tracer.call, tracer.iterator, tracer.aggregate
    patch(
        SessionManager,
        "execute",
        call("SessionManager.execute", SessionManager.execute, root=True, stamp=stamp, tag=statement_kind),
    )
    patch(Session, "execute", call("Session.execute", Session.execute, adopt=adopt))
    patch(Database, "execute", call("Database.execute", Database.execute, root=True))
    patch(engine_sql, "plan_query", call("plan_query", engine_sql.plan_query, probe=_node_reads))
    patch(
        engine_sql,
        "execute_plan_batches",
        iterator("execute_plan_batches", engine_sql.execute_plan_batches, size=len),
    )
    patch(TableIndex, "scan", iterator("TableIndex.scan", TableIndex.scan))
    patch(TableIndex, "nn_scan", iterator("TableIndex.nn_scan", TableIndex.nn_scan))
    patch(Table, "fetch_many", call("Table.fetch_many", Table.fetch_many, size=lambda args: len(args[1])))
    patch(Table, "insert", call("Table.insert", Table.insert))
    patch(Table, "insert_many", call("Table.insert", Table.insert_many))
    patch(SPGiSTIndex, "search", iterator("SPGiSTIndex.search", SPGiSTIndex.search))
    patch(SPGiSTIndex, "nn_search", iterator("SPGiSTIndex.nn_search", SPGiSTIndex.nn_search))
    patch(SPGiSTIndex, "insert", call("SPGiSTIndex.insert", SPGiSTIndex.insert))
    patch(SPGiSTIndex, "insert_many", call("SPGiSTIndex.insert", SPGiSTIndex.insert_many))
    patch(StorageNode, "commit", call("StorageNode.commit", StorageNode.commit))
    patch(StorageNode, "apply_segment", call("StorageNode.apply_segment", StorageNode.apply_segment))
    patch(FileDiskManager, "sync", call("FileDiskManager.sync", FileDiskManager.sync))
    patch(WriteAheadLog, "flush", call("WriteAheadLog.flush", WriteAheadLog.flush))
    patch(WriteAheadLog, "commit", call("WriteAheadLog.commit", WriteAheadLog.commit))
    patch(BufferPool, "fetch", aggregate("BufferPool.fetch", BufferPool.fetch))
    patch(FileDiskManager, "read_page", aggregate("FileDiskManager.read_page", FileDiskManager.read_page))
    patch(FileDiskManager, "write_page", aggregate("FileDiskManager.write_page", FileDiskManager.write_page))


def install_cluster_side(tracer: Tracer) -> None:
    """Wrap the cluster's router and two-phase commit (in-process workload)."""
    from repro.cluster import router as cluster_router
    from repro.cluster.cluster import Cluster
    from repro.cluster.router import Router
    from repro.cluster.twopc import PrepareJournal, TwoPhaseCoordinator
    from repro.replication.replicaset import ReplicaSet

    def op_class(args: tuple, kwargs: dict) -> str:
        return str(args[1])  # Cluster.search(op, operand)

    patch, call, iterator = tracer.patch, tracer.call, tracer.iterator
    patch(Cluster, "search", call("Cluster.search", Cluster.search, root=True, tag=op_class))
    patch(Cluster, "nn_search", call("Cluster.nn_search", Cluster.nn_search, root=True))
    patch(Cluster, "insert", call("Cluster.insert", Cluster.insert, root=True))
    patch(Router, "execute_batches", iterator("Router.execute_batches", Router.execute_batches))
    patch(Router, "nn_merged", iterator("Router.nn_merged", Router.nn_merged))
    patch(cluster_router, "plan_query", call("plan_query", cluster_router.plan_query, probe=_node_reads))
    patch(
        cluster_router,
        "execute_plan_batches",
        iterator("execute_plan_batches", cluster_router.execute_plan_batches, size=len),
    )
    patch(TwoPhaseCoordinator, "write", call("TwoPhaseCoordinator.write", TwoPhaseCoordinator.write))
    patch(PrepareJournal, "prepare", call("PrepareJournal.prepare", PrepareJournal.prepare))
    patch(ReplicaSet, "client_write", call("ReplicaSet.client_write", ReplicaSet.client_write))


def install_client_side(tracer: Tracer) -> None:
    """Wrap the driver and the bare wire client (load generator process)."""
    from repro.client.driver import ResilientClient
    from repro.server.net import SQLClient

    patch, call = tracer.patch, tracer.call
    patch(ResilientClient, "execute", call("ResilientClient.execute", ResilientClient.execute, root=True))
    patch(SQLClient, "execute", call("SQLClient.execute", SQLClient.execute))
