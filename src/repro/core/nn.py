"""Incremental nearest-neighbour search over SP-GiST trees (paper Section 5).

An adaptation of the Hjaltason–Samet ranking algorithm [23]: a priority queue
holds index nodes and data objects keyed by a lower bound on (respectively
the exact value of) their distance to the query object. The queue starts with
the root at distance 0; popping a node replaces it with its children at their
own bounds; popping an object reports it as the next NN. Each ``next()`` on
the returned generator is one *get-next* call, so the scan composes into a
query pipeline exactly as the paper describes.

The paper's generalization beyond quadtrees/kd-trees — remembering the
parent's information so a child's bound can be computed (needed by the trie,
whose bound depends on the entire accumulated prefix) — appears here as the
``state`` value threaded from ``nn_initial_state`` through every
``nn_inner_distance`` call.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Iterator

from repro.costmodel import CPU_OPS
from repro.obs import METRICS, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tree import SPGiSTIndex

_OBS_NN_SCANS = METRICS.counter(
    "spgist_operations_total", "SP-GiST operations started", labels=("op",)
).labels("nn")
_OBS_NN_NODES = METRICS.counter(
    "spgist_nodes_visited_total",
    "Tree nodes read during SP-GiST descents",
    labels=("op",),
).labels("nn")


class _ObjectTie:
    """Heap tie-break for equal-distance data objects: TID order.

    Orders by the entry's stored value (the heap TupleId in a table
    index), falling back to discovery order when two values are equal
    (spanning trees enqueue the same TID under several keys) or not
    mutually comparable (bare indexes carrying arbitrary payloads). The
    fallback never leaks nondeterminism into table scans: equal-TID
    entries are duplicates of one object, and the stream is deduped.
    """

    __slots__ = ("value", "seq")

    def __init__(self, value: Any, seq: int) -> None:
        self.value = value
        self.seq = seq

    def __lt__(self, other: "_ObjectTie") -> bool:
        try:
            if self.value < other.value:
                return True
            if other.value < self.value:
                return False
        except TypeError:
            pass
        return self.seq < other.seq


def nn_search(
    index: "SPGiSTIndex", query: Any
) -> Iterator[tuple[float, Any, Any]]:
    """Yield ``(distance, key, value)`` in non-decreasing distance order.

    The order is a *stable total order*: entries at equal distance come
    out in TID (stored-value) order, because inner nodes expand before
    any equal-distance object is reported and equal-distance objects
    tie-break on their value (:class:`_ObjectTie`). Every consumer —
    tuple-at-a-time, batched, and the cluster's cross-shard k-merge —
    therefore observes the same sequence for the same tree contents.
    """
    methods = index.methods
    if not methods.supports_nn:
        raise NotImplementedError(
            f"{index.name} does not define NN_Consistent (nn_*_distance)"
        )
    if index.root is None:
        return
    _OBS_NN_SCANS.inc()
    with span("index.nn", index=index.name):
        yield from _nn_ranked(index, query)


def _nn_ranked(
    index: "SPGiSTIndex", query: Any
) -> Iterator[tuple[float, Any, Any]]:
    methods = index.methods
    tiebreak = itertools.count()
    # Queue entries: (distance, kind, tie, payload, level, state) where
    # payload is a NodeRef for inner nodes (kind 0, tie = discovery
    # counter) and a (key, value) pair for data objects (kind 1, tie =
    # value/TID order). Popping all equal-distance nodes before any
    # equal-distance object means every object at distance d is enqueued
    # before the first one is reported, so objects stream out in a stable
    # (distance, TID) total order regardless of tree shape — the
    # determinism the cross-shard k-merge and the batch/tuple
    # differential oracle rely on.
    queue: list[tuple[float, int, Any, Any, int, Any]] = [
        (0.0, 0, next(tiebreak), index.root, 0,
         methods.nn_initial_state(query))
    ]
    seen: set[tuple[Any, Any]] | None = set() if methods.spanning else None

    while queue:
        distance, kind, _, payload, level, state = heapq.heappop(queue)
        if kind == 1:
            key, value = payload
            if seen is not None:
                token = (key, value)
                if token in seen:
                    continue
                seen.add(token)
            yield distance, key, value
            continue

        node = index.store.read(payload)
        _OBS_NN_NODES.inc()
        if node.is_leaf:
            for key, value in node.items:
                CPU_OPS.add(1)
                d = methods.nn_leaf_distance(query, key)
                # Clamp to the parent's bound to keep the order monotone in
                # the presence of slightly loose bounds.
                heapq.heappush(
                    queue,
                    (max(d, distance), 1, _ObjectTie(value, next(tiebreak)),
                     (key, value), level, None),
                )
            continue

        delta = methods.level_delta(node.predicate)
        for entry in node.entries:
            if entry.child is None:
                continue
            CPU_OPS.add(1)
            bound, child_state = methods.nn_inner_distance(
                query, node.predicate, entry.predicate, level, state
            )
            heapq.heappush(
                queue,
                (max(bound, distance), 0, next(tiebreak), entry.child,
                 level + delta, child_state),
            )


def nearest(
    index: "SPGiSTIndex", query: Any, k: int
) -> list[tuple[float, Any, Any]]:
    """Convenience wrapper: the ``k`` nearest items as a list."""
    return list(itertools.islice(nn_search(index, query), k))
