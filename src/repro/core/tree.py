"""SP-GiST internal methods: the generalized tree engine.

:class:`SPGiSTIndex` implements the framework's shared machinery — Insert(),
Search(), Delete(), bulk build, and statistics — entirely in terms of the
interface parameters and external methods of one instantiation. Nothing in
this module knows about strings, points, or segments.

Correspondence to the paper's interface routines (Table 2): ``insert`` is
``spgistinsert``, ``search`` is ``spgistbeginscan``/``spgistgettuple``,
``build`` is ``spgistbuild``, ``delete`` is ``spgistbulkdelete`` applied to a
single key, and ``statistics`` feeds ``spgistcostestimate``.

Every node the engine touches is read through the index's
:class:`~repro.core.clustering.NodeStore`, one buffer-pool fetch per node;
the pool is the only cache between a descent and the disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

from repro.costmodel import CPU_OPS
from repro.errors import IndexCorruptionError, KeyNotFoundError, PlannerError
from repro.obs import METRICS, span
from repro.core.clustering import (
    NodeStore,
    pack_nodes,
    repack_subtree,
)
from repro.core.config import SPGiSTConfig
from repro.core.external import (
    AddEntry,
    Descend,
    DescendMultiple,
    ExternalMethods,
    PickSplitResult,
    Query,
    SplitPrefix,
)
from repro.core.node import Entry, InnerNode, LeafNode, NodeRef
from repro.core.stats import TreeStatistics, collect_statistics
from repro.storage.buffer import BufferPool

#: Hard cap on recursive re-splitting of one overfull partition; beyond this
#: the items spill into an overfull leaf (duplicate-heavy data).
_MAX_SPLIT_DEPTH = 128

# Per-operation observability: node visits attribute descent cost to the
# operation that paid it, the level histogram profiles descent depth (the
# paper's node-height experiments, figure 11), splits count restructures.
_OBS_OPS = METRICS.counter(
    "spgist_operations_total", "SP-GiST operations started", labels=("op",)
)
_OBS_INSERTS = _OBS_OPS.labels("insert")
_OBS_SEARCHES = _OBS_OPS.labels("search")
_OBS_NN = _OBS_OPS.labels("nn")
_OBS_NODES = METRICS.counter(
    "spgist_nodes_visited_total",
    "Tree nodes read during SP-GiST descents",
    labels=("op",),
)
_OBS_INSERT_NODES = _OBS_NODES.labels("insert")
_OBS_SEARCH_NODES = _OBS_NODES.labels("search")
_OBS_SPLITS = METRICS.counter(
    "spgist_leaf_splits_total", "Overfull leaves decomposed by PickSplit"
)
_OBS_DESCENT_LEVELS = METRICS.histogram(
    "spgist_descent_levels",
    "Level at which an inserted item reached its leaf",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128),
)
_OBS_REPACK_STEPS = METRICS.counter(
    "spgist_repack_steps_total", "Online repack subtree steps completed"
)
_OBS_REPACK_NODES = METRICS.counter(
    "spgist_repack_nodes_moved_total", "Nodes relocated by online repack"
)


@dataclass(frozen=True)
class OnlineRepackStats:
    """What one ``repack_online`` call re-clustered."""

    subtrees_repacked: int
    nodes_moved: int
    pages_freed: int
    fill_before: float
    fill_after: float


class SPGiSTIndex:
    """One SP-GiST index instance: internal methods + plugged-in externals.

    Parameters
    ----------
    buffer:
        The buffer pool the index allocates its node pages from.
    methods:
        The external-method object defining the instantiation (trie,
        kd-tree, quadtree, ...).
    name:
        Optional name used in reports and error messages.
    """

    def __init__(
        self,
        buffer: BufferPool,
        methods: ExternalMethods,
        name: str = "",
        page_capacity: int | None = None,
    ) -> None:
        self.buffer = buffer
        self.methods = methods
        self.name = name or type(methods).__name__
        self.config: SPGiSTConfig = methods.get_parameters()
        from repro.storage.page import PAGE_CAPACITY

        self.store = NodeStore(buffer, page_capacity or PAGE_CAPACITY)
        self.root: NodeRef | None = None
        self._item_count = 0

    # ------------------------------------------------------------------ insert

    def insert(self, key: Any, value: Any = None) -> None:
        """Insert one ``(key, value)`` item (value is typically a heap TID)."""
        _OBS_INSERTS.inc()
        with span("index.insert", index=self.name):
            if self.root is None:
                self.root = self.store.create(LeafNode(items=[(key, value)]))
                self._item_count += 1
                _OBS_DESCENT_LEVELS.observe(1)
                return
            self._insert_descend(self.root, [], 0, key, value)
            self._item_count += 1

    def insert_many(self, items: Any) -> int:
        """Insert a batch of ``(key, value)`` pairs in one call.

        Result-equivalent to repeated :meth:`insert`, but batched for the
        hot path: an empty index takes the bulk decomposition plus packed
        materialization route (each final page written exactly once), and a
        populated index runs the per-item descents under a single trace
        span so batch overhead is amortized. Returns the number of items
        inserted.
        """
        pairs = list(items)
        if not pairs:
            return 0
        _OBS_INSERTS.inc(len(pairs))
        with span("index.insert_many", index=self.name):
            if self.root is None:
                plan = self._bulk_plan(pairs)
                self.root = self._materialize_packed(plan)
                self._item_count += len(pairs)
            else:
                for key, value in pairs:
                    self._insert_descend(self.root, [], 0, key, value)
                    self._item_count += 1
        return len(pairs)

    def _insert_descend(
        self,
        ref: NodeRef,
        path: list[NodeRef],
        level: int,
        key: Any,
        value: Any,
    ) -> None:
        """Walk down from ``ref`` and place the item; splits as needed.

        ``path`` holds the refs of the ancestors of ``ref`` so child-pointer
        repairs after a node relocation can find the parent.
        """
        while True:
            node = self.store.read(ref)
            _OBS_INSERT_NODES.inc()
            if node.is_leaf:
                node.items.append((key, value))
                ref = self._write_with_repair(path, ref, node)
                _OBS_DESCENT_LEVELS.observe(len(path) + 1)
                if len(node.items) > self.config.bucket_size:
                    self._split_leaf(path, ref, node, level, depth=0)
                return

            CPU_OPS.add(1)
            result = self.methods.choose(
                node.predicate, [e.predicate for e in node.entries], key, level
            )
            if isinstance(result, SplitPrefix):
                # Local restructure (Figure 1c conflict): demote this node
                # under a fresh inner node carrying the common prefix, then
                # re-choose against the replacement.
                demoted = InnerNode(
                    predicate=result.old_node_predicate,
                    entries=list(node.entries),
                )
                demoted_ref = self.store.create(demoted, near=ref)
                replacement = InnerNode(
                    predicate=result.new_prefix,
                    entries=[Entry(result.old_entry_predicate, demoted_ref)],
                )
                ref = self._write_with_repair(path, ref, replacement)
                continue

            if isinstance(result, AddEntry):
                leaf_ref = self.store.create(LeafNode(), near=ref)
                node.entries.append(Entry(result.predicate, leaf_ref))
                new_ref = self._write_with_repair(path, ref, node)
                path.append(new_ref)
                ref = leaf_ref
                level += result.level_delta
                continue

            if isinstance(result, Descend):
                entry = node.entries[result.entry_index]
                if entry.child is None:
                    entry.child = self.store.create(LeafNode(), near=ref)
                    ref = self._write_with_repair(path, ref, node)
                    entry = self.store.read(ref).entries[result.entry_index]
                path.append(ref)
                ref = entry.child
                level += result.level_delta
                continue

            if isinstance(result, DescendMultiple):
                # Spanning object (PMR segment): replicate into every target
                # partition. Branch recursively with per-branch path copies.
                for idx in result.entry_indexes:
                    entry = node.entries[idx]
                    if entry.child is None:
                        entry.child = self.store.create(LeafNode(), near=ref)
                        ref = self._write_with_repair(path, ref, node)
                        node = self.store.read(ref)
                for idx in result.entry_indexes:
                    child = self.store.read(ref).entries[idx].child
                    self._insert_descend(
                        child,
                        path + [ref],
                        level + result.level_delta,
                        key,
                        value,
                    )
                return

            raise IndexCorruptionError(
                f"choose() returned unsupported result {result!r}"
            )

    def _split_leaf(
        self,
        path: list[NodeRef],
        ref: NodeRef,
        leaf: LeafNode,
        level: int,
        depth: int,
    ) -> None:
        """Replace an overfull leaf with a PickSplit decomposition."""
        if self.config.resolution and level >= self.config.resolution:
            return  # resolution reached: leaf spills past BucketSize
        if depth > _MAX_SPLIT_DEPTH:
            return
        parent_predicate = self._predicate_above(path, ref)
        result = self.methods.picksplit(list(leaf.items), level, parent_predicate)
        if self._is_degenerate_split(result, len(leaf.items)):
            return  # inseparable items (duplicates): spill
        _OBS_SPLITS.inc()

        inner = InnerNode(predicate=result.node_predicate, entries=[])
        for predicate, part_items in result.partitions:
            if not part_items and self.config.node_shrink:
                continue
            child_ref = self.store.create(LeafNode(items=part_items), near=ref)
            inner.entries.append(Entry(predicate, child_ref))
        new_ref = self._write_with_repair(path, ref, inner)

        if not result.recurse_overfull:
            return
        child_level = level + result.level_delta
        for entry in self.store.read(new_ref).entries:
            if entry.child is None:
                continue
            child = self.store.read(entry.child)
            if child.is_leaf and len(child.items) > self.config.bucket_size:
                self._split_leaf(
                    path + [new_ref], entry.child, child, child_level, depth + 1
                )

    def _predicate_above(self, path: list[NodeRef], ref: NodeRef) -> Any:
        """Predicate of the entry pointing at ``ref`` (region for quadtrees)."""
        if not path:
            return self.methods.initial_root_predicate()
        parent = self.store.read(path[-1])
        for entry in parent.entries:
            if entry.child == ref:
                return entry.predicate
        raise IndexCorruptionError(
            f"node {ref} is not referenced by its path parent {path[-1]}"
        )

    @staticmethod
    def _is_degenerate_split(result: PickSplitResult, item_count: int) -> bool:
        """Splits that cannot make progress are rejected; the leaf spills.

        The external method signals inseparability via ``progress=False``;
        as a safety net, a split that keeps every item in one partition
        while consuming no levels is also rejected (it would loop forever).
        """
        if not result.progress:
            return True
        non_empty = [p for p in result.partitions if p[1]]
        if not non_empty:
            return True
        all_in_one = len(non_empty) == 1 and len(non_empty[0][1]) >= item_count
        return all_in_one and result.level_delta == 0

    def _write_with_repair(
        self, path: list[NodeRef], ref: NodeRef, node: Any
    ) -> NodeRef:
        """Write ``node`` back; on relocation, patch the parent's downlink."""
        new_ref = self.store.write(ref, node)
        if new_ref == ref:
            return new_ref
        if path:
            parent_ref = path[-1]
            parent = self.store.read(parent_ref)
            slot = next(
                (
                    i
                    for i, e in enumerate(parent.entries)
                    if e.child == ref
                ),
                None,
            )
            if slot is None:
                raise IndexCorruptionError(
                    f"relocated node {ref} not referenced by parent {parent_ref}"
                )
            parent.entries[slot].child = new_ref
            self.store.write(parent_ref, parent)
        elif self.root == ref:
            self.root = new_ref
        else:
            raise IndexCorruptionError(
                f"relocated node {ref} has no parent on the descent path"
            )
        return new_ref

    # ------------------------------------------------------------------ search

    def search(
        self, query: Query, dedup: bool | None = None
    ) -> Iterator[tuple[Any, Any]]:
        """Yield every ``(key, value)`` satisfying ``query``.

        ``dedup`` suppresses the duplicate reports spanning objects produce
        in space-driven trees (a PMR segment lives in every block it
        crosses); it is the index-scan layer's standard duplicate
        elimination. Defaults to on exactly for spanning instantiations.
        """
        if query.op not in self.methods.supported_operators:
            raise PlannerError(
                f"{self.name} does not support operator {query.op!r}; "
                f"supported: {self.methods.supported_operators}"
            )
        if self.root is None:
            return
        if dedup is None:
            dedup = self.methods.spanning
        _OBS_SEARCHES.inc()
        yield from self._search_consistent(query, dedup)

    def _search_consistent(
        self, query: Query, dedup: bool
    ) -> Iterator[tuple[Any, Any]]:
        """The descent loop of :meth:`search`, bracketed by a trace span.

        The span opens at the first ``next()`` and closes at exhaustion (or
        when the consumer abandons the generator), so its duration is the
        scan's lifetime — lazy consumers inflate it, which is exactly what
        an operator-level trace should show.
        """
        with span("index.search", index=self.name, op=query.op):
            yield from self._search_nodes(query, dedup)

    def _search_nodes(
        self, query: Query, dedup: bool
    ) -> Iterator[tuple[Any, Any]]:
        seen: set[tuple[Any, Any]] | None = set() if dedup else None
        stack: list[tuple[NodeRef, int]] = [(self.root, 0)]
        while stack:
            ref, level = stack.pop()
            node = self.store.read(ref)
            _OBS_SEARCH_NODES.inc()
            if node.is_leaf:
                for key, value in node.items:
                    CPU_OPS.add(1)
                    if not self.methods.leaf_consistent(key, query, level):
                        continue
                    if seen is not None:
                        token = (key, value)
                        if token in seen:
                            continue
                        seen.add(token)
                    yield key, value
                continue
            delta = self.methods.level_delta(node.predicate)
            for entry in node.entries:
                if entry.child is None:
                    continue
                CPU_OPS.add(1)
                if self.methods.consistent(
                    node.predicate, entry.predicate, query, level
                ):
                    stack.append((entry.child, level + delta))

    def scan(self, op: str, operand: Any) -> Iterator[Any]:
        """Values of the items satisfying ``op operand``, each once: suffix
        extraction stores one item per suffix, so :meth:`search` can
        report the same value many times."""
        seen: set[Any] = set()
        for _key, value in self.search(Query(op, operand)):
            if value not in seen:
                seen.add(value)
                yield value

    def search_list(self, query: Query) -> list[tuple[Any, Any]]:
        """Materialized :meth:`search` (convenience for tests/benchmarks)."""
        return list(self.search(query))

    def begin_scan(self, query: Query) -> "IndexScanCursor":
        """Open a positioned cursor over ``query`` (``spgistbeginscan``).

        The cursor supports incremental ``get_next`` (``spgistgettuple``),
        ``rescan``, and ``mark``/``restore`` — the full pg_am scan contract
        of the paper's Table 2.
        """
        from repro.core.scan import IndexScanCursor

        return IndexScanCursor(self, query)

    # ------------------------------------------------------------------ NN

    def nn_search(self, query: Any) -> Iterator[tuple[float, Any, Any]]:
        """Incremental nearest-neighbour scan (paper Section 5).

        Yields ``(distance, key, value)`` in non-decreasing distance order;
        consume lazily (`itertools.islice`) for top-k semantics — every
        ``next()`` is one *get-next* call of the paper's pipeline operator.
        """
        from repro.core.nn import nn_search

        return nn_search(self, query)

    # ------------------------------------------------------------------ delete

    def delete(self, key: Any, value: Any = None) -> int:
        """Remove items matching ``key`` (and ``value`` when given).

        Returns the number of logical items removed (spanning copies of one
        item count once). Raises :class:`KeyNotFoundError` when nothing
        matches. Empty leaves and entries are pruned when NodeShrink allows.
        """
        if self.root is None:
            raise KeyNotFoundError(key)
        query = Query(self.methods.equality_operator, key)
        raw_removed = 0
        removed_pairs: set[tuple[Any, Any]] = set()
        stack: list[tuple[NodeRef, int, tuple[NodeRef, ...]]] = [
            (self.root, 0, ())
        ]
        while stack:
            ref, level, path = stack.pop()
            node = self.store.read(ref)
            if node.is_leaf:
                kept = []
                for item_key, item_value in node.items:
                    matches = self.methods.leaf_consistent(item_key, query, level)
                    if matches and (value is None or item_value == value):
                        raw_removed += 1
                        removed_pairs.add((item_key, item_value))
                        continue
                    kept.append((item_key, item_value))
                if len(kept) != len(node.items):
                    node.items = kept
                    if node.items or not self.config.node_shrink:
                        self._write_with_repair(list(path), ref, node)
                    else:
                        self._prune_empty_leaf(path, ref)
                continue
            delta = self.methods.level_delta(node.predicate)
            for entry in node.entries:
                if entry.child is None:
                    continue
                if self.methods.consistent(
                    node.predicate, entry.predicate, query, level
                ):
                    stack.append((entry.child, level + delta, path + (ref,)))
        # Spanning trees replicate one logical item into several leaves, so
        # logical removals count distinct (key, value) pairs there.
        count = len(removed_pairs) if self.methods.spanning else raw_removed
        if count == 0:
            raise KeyNotFoundError(key)
        self._item_count -= count
        return count

    def bulk_delete(self, should_delete: Any) -> int:
        """Remove every item for which ``should_delete(key, value)`` is true.

        The paper's ``spgistbulkdelete`` routine: a full walk over the data
        nodes with a caller-supplied predicate (PostgreSQL passes the
        list of dead TIDs; we generalize to a callback). Empty leaves and
        entries are pruned when NodeShrink allows. Returns the number of
        logical items removed.
        """
        if self.root is None:
            return 0
        raw_removed = 0
        removed_pairs: set[tuple[Any, Any]] = set()
        stack: list[tuple[NodeRef, tuple[NodeRef, ...]]] = [(self.root, ())]
        while stack:
            ref, path = stack.pop()
            node = self.store.read(ref)
            if node.is_leaf:
                kept = []
                for item_key, item_value in node.items:
                    if should_delete(item_key, item_value):
                        raw_removed += 1
                        removed_pairs.add((item_key, item_value))
                    else:
                        kept.append((item_key, item_value))
                if len(kept) != len(node.items):
                    node.items = kept
                    if node.items or not self.config.node_shrink:
                        self._write_with_repair(list(path), ref, node)
                    else:
                        self._prune_empty_leaf(path, ref)
                continue
            for entry in node.entries:
                if entry.child is not None:
                    stack.append((entry.child, path + (ref,)))
        count = len(removed_pairs) if self.methods.spanning else raw_removed
        self._item_count -= count
        return count

    def delete_entries(self, entries: list[tuple[Any, Any]]) -> int:
        """Remove the items carrying the values of ``entries`` in one
        :meth:`bulk_delete` walk; returns how many were removed."""
        values = {value for _key, value in entries}
        return self.bulk_delete(lambda _key, value: value in values)

    def vacuum(self) -> None:
        """Post-delete cleanup: repack pages (``amvacuumcleanup`` analogue)."""
        self.repack()

    def _prune_empty_leaf(self, path: tuple[NodeRef, ...], ref: NodeRef) -> None:
        """Free an empty leaf and cascade entry removal up the path."""
        self.store.free(ref)
        child_ref = ref
        for parent_ref in reversed(path):
            parent = self.store.read(parent_ref)
            parent.entries = [e for e in parent.entries if e.child != child_ref]
            if parent.entries:
                self.store.write(parent_ref, parent)
                return
            self.store.free(parent_ref)
            child_ref = parent_ref
        # Every ancestor emptied out: the tree is now empty.
        self.root = None

    # ------------------------------------------------------------------ build

    def build(
        self, items: Any, cluster: bool = True
    ) -> None:
        """Bulk-load ``(key, value)`` pairs, then optionally repack pages.

        The paper's ``spgistbuild`` inserts the existing relation rows and
        relies on the clustering technique for page layout; ``cluster=True``
        finishes with the offline minimum-page-height repack.
        """
        for key, value in items:
            self.insert(key, value)
        if cluster:
            self.repack()

    def bulk_build(self, items: Any, cluster: bool = True) -> None:
        """Build the tree top-down by recursive PickSplit (bulk operations).

        The generalized bulk load in the spirit of Ghanem et al. (the
        bulk-operations companion work the paper cites): instead of one
        descent per item, the *entire* item set is decomposed with the
        instantiation's own PickSplit until partitions fit their buckets,
        materializing the final tree directly — far fewer page writes than
        insert-at-a-time. Requires an empty index. For split-once trees
        (PMR) the decomposition still stops at BucketSize or Resolution,
        the natural bulk analogue of the dynamic splitting rule.
        """
        if self.root is not None:
            raise IndexCorruptionError(
                "bulk_build requires an empty index; use build() to append"
            )
        all_items = list(items)
        if not all_items:
            return
        self._item_count = len(all_items)
        plan = self._bulk_plan(all_items)
        if cluster:
            # Packed materialization writes each node straight into its
            # final BFS-cap page — one write per page, no repack pass.
            self.root = self._materialize_packed(plan)
        else:
            self.root = self._materialize_incremental(plan)

    def _bulk_plan(self, all_items: list[tuple[Any, Any]]) -> Any:
        """Iterative top-down decomposition (safe for degenerate depths).

        Plan nodes are ``("leaf", items)`` or
        ``("inner", node_predicate, [[entry_predicate, child_plan], ...])``.
        Planning touches only local Python state — no pages are allocated
        until one of the materialize phases runs.
        """
        resolution = self.config.resolution
        bucket = self.config.bucket_size

        root_plan: list = ["pending"]
        stack = [
            (all_items, 0, self.methods.initial_root_predicate(), 0,
             root_plan, 0)
        ]
        while stack:
            items_, level_, region_, depth_, parent, slot = stack.pop()
            if (
                len(items_) <= bucket
                or (resolution and level_ >= resolution)
                or depth_ > _MAX_SPLIT_DEPTH
            ):
                parent[slot] = ("leaf", items_)
                continue
            result = self.methods.picksplit(list(items_), level_, region_)
            if self._is_degenerate_split(result, len(items_)):
                parent[slot] = ("leaf", items_)
                continue
            children: list = []
            child_level = level_ + result.level_delta
            for predicate, part_items in result.partitions:
                if not part_items and self.config.node_shrink:
                    continue
                children.append([predicate, "pending"])
                stack.append(
                    (part_items, child_level, predicate, depth_ + 1,
                     children[-1], 1)
                )
            parent[slot] = ("inner", result.node_predicate, children)
        return root_plan[0]

    def _materialize_packed(self, plan: Any) -> NodeRef:
        """Write a plan tree straight into its final clustered page layout.

        Builds every node object up-front, then hands the tree to
        :func:`pack_nodes`, which assigns BFS-cap positions and writes each
        page exactly once. The resulting layout matches what
        :meth:`_materialize_incremental` followed by :meth:`repack` would
        produce, at roughly half the page writes.
        """
        plans: list = []
        stack = [plan]
        while stack:
            p = stack.pop()
            plans.append(p)
            if p[0] == "inner":
                stack.extend(child for _epred, child in p[2])
        node_of: dict[int, Any] = {}
        for p in plans:
            if p[0] == "leaf":
                node_of[id(p)] = LeafNode(items=p[1])
            else:
                node_of[id(p)] = InnerNode(
                    predicate=p[1],
                    entries=[Entry(epred, None) for epred, _child in p[2]],
                )
        children: dict[int, list[Any]] = {
            id(node_of[id(p)]): (
                [node_of[id(child)] for _epred, child in p[2]]
                if p[0] == "inner"
                else []
            )
            for p in plans
        }
        return pack_nodes(
            self.store, node_of[id(plan)], lambda n: children[id(n)]
        )

    def _materialize_incremental(self, plan: Any) -> NodeRef:
        """Materialize a plan tree bottom-up through the node store.

        Each work item writes its NodeRef into ``sink[slot]``; an inner
        node is pushed back once ("assemble") after its children so their
        refs are ready. Placement is the dynamic parent-proximity rule —
        the page layout a pure insert workload would have produced.
        """
        out: list = [None]
        work: list[tuple] = [("visit", plan, None, out, 0)]
        while work:
            action, node, refs, sink, slot = work.pop()
            if action == "visit":
                if node[0] == "leaf":
                    sink[slot] = self.store.create(LeafNode(items=node[1]))
                    continue
                _tag, _predicate, children = node
                child_refs: list = [None] * len(children)
                work.append(("assemble", node, child_refs, sink, slot))
                for i, (_entry_pred, child_plan) in enumerate(children):
                    work.append(("visit", child_plan, None, child_refs, i))
            else:
                _tag, predicate, children = node
                entries = [
                    Entry(entry_predicate, refs[i])
                    for i, (entry_predicate, _plan) in enumerate(children)
                ]
                sink[slot] = self.store.create(
                    InnerNode(predicate=predicate, entries=entries)
                )
        return out[0]

    def repack(self) -> None:
        """Rewrite every node page with the clustering algorithm.

        One :func:`repack_subtree` step over the whole tree. It neither
        continues an earlier online step's tail page nor leaves one behind,
        so the layout is that of a fresh bulk build.
        """
        if self.root is None:
            return
        store = self.store
        store._repack_open_page_id = None
        self.root, _step = repack_subtree(store, self.root)
        store._repack_open_page_id = None

    def repack_online(
        self, max_subtrees: int | None = None
    ) -> OnlineRepackStats:
        """Re-cluster hot subtrees in place, in bounded per-subtree steps.

        The bounded counterpart of :meth:`repack`: instead of moving the
        whole tree in one step (one long exclusive hold),
        each *step* BFS-cap repacks one child subtree of the root inside
        the live store (:func:`repro.core.clustering.repack_subtree`) and
        repairs the root's downlink. Between steps the tree is always
        search-consistent, so a caller can interleave commits — the WAL
        then carries each repacked extent as ordinary page images, and a
        crash in any step recovers to the last committed step's layout.

        Subtrees are taken hottest-first by the store's per-page read
        counters (:attr:`NodeStore.page_reads`): ``max_subtrees=1`` is
        the autovacuum-style background step; ``None`` repacks every
        subtree plus the root itself — the full ``REPACK INDEX``
        statement — and resets the heat counters.
        """
        store = self.store
        fill_before = store.fill_factor()
        subtrees = nodes_moved = pages_freed = 0
        root_node = store.read(self.root) if self.root is not None else None
        if isinstance(root_node, InnerNode):
            reads = store.page_reads
            order = sorted(
                (
                    i
                    for i, entry in enumerate(root_node.entries)
                    if entry.child is not None
                ),
                key=lambda i: -reads.get(
                    root_node.entries[i].child.page_id, 0
                ),
            )
            if max_subtrees is not None:
                order = order[:max_subtrees]
            for i in order:
                entry = root_node.entries[i]
                entry.child, step = repack_subtree(store, entry.child)
                # Persist the repaired downlink; the root may relocate if
                # its page ran out of space.
                self.root = store.write(self.root, root_node)
                subtrees += 1
                nodes_moved += step.nodes_moved
                pages_freed += step.pages_freed
                _OBS_REPACK_STEPS.inc()
                _OBS_REPACK_NODES.inc(step.nodes_moved)
        elif root_node is not None and max_subtrees is None:
            # Leaf-rooted (tiny) tree: the whole tree is one subtree.
            self.root, step = repack_subtree(store, self.root)
            subtrees += 1
            nodes_moved += step.nodes_moved
            pages_freed += step.pages_freed
            _OBS_REPACK_STEPS.inc()
            _OBS_REPACK_NODES.inc(step.nodes_moved)
        if isinstance(root_node, InnerNode) and max_subtrees is None:
            # Full pass: pull the root node itself into the packed extent
            # so its old page can be released too.
            cont = store._repack_open_page_id
            old_root = self.root
            near = NodeRef(cont, 0) if cont is not None else None
            self.root = store.create(root_node, near=near)
            store.free(old_root)
            nodes_moved += 1
            pages_freed += store.drop_empty_pages()
            store.page_reads.clear()
        return OnlineRepackStats(
            subtrees_repacked=subtrees,
            nodes_moved=nodes_moved,
            pages_freed=pages_freed,
            fill_before=fill_before,
            fill_after=store.fill_factor(),
        )

    # ------------------------------------------------------------------ stats

    def __len__(self) -> int:
        return self._item_count

    @property
    def num_pages(self) -> int:
        """Pages allocated to index nodes (the paper's "index size")."""
        return self.store.num_pages

    @property
    def page_height(self) -> int:
        """The most pages a root-to-leaf descent touches (walks the tree)."""
        return self.statistics().max_page_height

    @property
    def supports_nn(self) -> bool:
        return self.methods.supports_nn

    def statistics(self) -> TreeStatistics:
        """Full structural statistics (heights, node counts, fill factor)."""
        return collect_statistics(self)

    def check(self, strict_buckets: bool = True) -> "Any":
        """Run the ``amcheck``-style structural verifier on this index.

        Returns a :class:`repro.resilience.check.CheckReport`; call its
        ``raise_if_failed()`` to turn findings into
        :class:`IndexCorruptionError`. See :func:`repro.resilience.check.
        spgist_check` for the list of verified invariants.
        """
        from repro.resilience.check import spgist_check

        return spgist_check(self, strict_buckets=strict_buckets)
