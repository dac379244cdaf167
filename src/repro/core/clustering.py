"""Node-to-page clustering: packing small tree nodes into disk pages.

Space-partitioning tree nodes are much smaller than pages, so the mapping of
nodes to pages decides the I/O cost of every root-to-leaf traversal (paper
Section 3, "Clustering"). SP-GiST ships a clustering technique based on
Diwan et al. [12] that provably minimizes the tree's *page height*. We
implement the same idea in two places:

- **Incremental placement** (:meth:`NodeStore.create`): a new node is placed
  on its parent's page when space remains, otherwise on the current open
  page, otherwise on a fresh page. Parent-child co-residency is exactly what
  keeps page height low during dynamic inserts.
- **BFS-cap packing**: each page receives the breadth-first top of one
  subtree until its byte budget is exhausted, and the children left
  uncovered seed the next pages. Every traversal then crosses one page per
  cap, which is the minimum-page-height behaviour of [12]; Figure 12
  measures exactly this. There is one planner (:func:`_plan_pages`) and one
  materializer (:func:`_write_pages`); :func:`pack_nodes` runs them over an
  in-memory tree (bulk build), :func:`repack_subtree` over a stored subtree
  (the whole-tree repack, ``REPACK INDEX`` and the background repacker).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.errors import IndexCorruptionError
from repro.core.node import Entry, InnerNode, LeafNode, NodeRef
from repro.storage.buffer import BufferPool
from repro.storage.page import PAGE_CAPACITY


@dataclass
class _NodePagePayload:
    """On-page layout for node pages: a slot array plus per-slot sizes."""

    slots: list[Any] = field(default_factory=list)
    slot_bytes: list[int] = field(default_factory=list)
    used_bytes: int = 0

    def live_nodes(self) -> int:
        return sum(1 for node in self.slots if node is not None)


class NodeStore:
    """Allocates, reads, writes, and relocates SP-GiST nodes in pages.

    Node addresses are physical: ``NodeRef(page_id, slot)``. A node that
    grows past its page's remaining space is *relocated* to a different page
    and the caller (which holds the descent path) repairs the parent's child
    pointer — mirroring how a C implementation moves a tuple and updates the
    downlink. Nodes live only in their pages' buffer-pool frames; the store
    keeps no node objects of its own.
    """

    def __init__(
        self,
        buffer: BufferPool,
        page_capacity: int = PAGE_CAPACITY,
    ) -> None:
        self.buffer = buffer
        self.page_capacity = page_capacity
        self.page_ids: list[int] = []
        self.num_nodes = 0
        self._open_page_id: int | None = None
        #: Per-page read counters: how often :meth:`read` resolved a node
        #: on each page. The online repack uses these as its hot-subtree
        #: signal. Transient by design — not persisted in the meta page;
        #: after a restart the counters warm up again, which only changes
        #: repack *ordering*, never results.
        self.page_reads: dict[int, int] = {}
        #: The partially-filled tail page of the last online repack step,
        #: continued by the next step so stepwise repacking packs as
        #: densely as a one-shot repack. Also transient.
        self._repack_open_page_id: int | None = None

    # -- creation / placement --------------------------------------------------

    def create(self, node: Any, near: NodeRef | None = None) -> NodeRef:
        """Store a new node, clustering it near ``near`` when possible."""
        size = node.approx_bytes()
        ref = None
        if near is not None:
            ref = self._try_place(near.page_id, node, size)
        if ref is None and self._open_page_id is not None:
            ref = self._try_place(self._open_page_id, node, size)
        if ref is None:
            payload = _NodePagePayload(
                slots=[node], slot_bytes=[size], used_bytes=size
            )
            page_id = self.buffer.new_page(payload)
            self.page_ids.append(page_id)
            self._open_page_id = page_id
            ref = NodeRef(page_id, 0)
        self.num_nodes += 1
        return ref

    def _try_place(self, page_id: int, node: Any, size: int) -> NodeRef | None:
        payload: _NodePagePayload = self.buffer.fetch(page_id)
        if payload.used_bytes + size > self.page_capacity:
            return None
        # Reuse a tombstoned slot when one exists; else append.
        for slot, existing in enumerate(payload.slots):
            if existing is None:
                payload.slots[slot] = node
                payload.slot_bytes[slot] = size
                break
        else:
            payload.slots.append(node)
            payload.slot_bytes.append(size)
            slot = len(payload.slots) - 1
        payload.used_bytes += size
        self.buffer.mark_dirty(page_id)
        return NodeRef(page_id, slot)

    # -- access -------------------------------------------------------------------

    def read(self, ref: NodeRef) -> Any:
        """Fetch the node at ``ref``: exactly one buffer-pool fetch.

        The read also counts the page's heat in :attr:`page_reads` for the
        online repack. A freed or out-of-range slot raises
        :class:`IndexCorruptionError`.
        """
        page_id, slot = ref
        reads = self.page_reads
        reads[page_id] = reads.get(page_id, 0) + 1
        try:
            node = self.buffer.fetch(page_id).slots[slot]
        except IndexError:
            node = None
        if node is None:
            raise IndexCorruptionError(f"dangling node reference {ref}")
        return node

    def write(self, ref: NodeRef, node: Any) -> NodeRef:
        """Persist ``node`` at ``ref``; relocate if it no longer fits.

        Returns the node's (possibly new) address. Callers must treat a
        changed address as a pointer update for the parent entry.
        """
        size = node.approx_bytes()
        payload: _NodePagePayload = self.buffer.fetch(ref.page_id)
        old_size = payload.slot_bytes[ref.slot]
        new_used = payload.used_bytes - old_size + size
        single_resident = payload.live_nodes() == 1
        # An oversize node alone on its page stands in for an overflow chain.
        if new_used <= self.page_capacity or (
            single_resident and size > self.page_capacity
        ):
            payload.slots[ref.slot] = node
            payload.slot_bytes[ref.slot] = size
            payload.used_bytes = new_used
            self.buffer.mark_dirty(ref.page_id)
            return ref
        self._remove_slot(payload, ref)
        self.num_nodes -= 1  # create() re-counts it
        return self.create(node)

    def free(self, ref: NodeRef) -> None:
        """Tombstone the node at ``ref``."""
        payload: _NodePagePayload = self.buffer.fetch(ref.page_id)
        if payload.slots[ref.slot] is None:
            raise IndexCorruptionError(f"double free of node {ref}")
        self._remove_slot(payload, ref)
        self.num_nodes -= 1

    def _remove_slot(self, payload: _NodePagePayload, ref: NodeRef) -> None:
        payload.used_bytes -= payload.slot_bytes[ref.slot]
        payload.slots[ref.slot] = None
        payload.slot_bytes[ref.slot] = 0
        self.buffer.mark_dirty(ref.page_id)

    def drop_empty_pages(self) -> int:
        """Release every node page with no live slots; returns the count.

        Freed pages leave the buffer pool via :meth:`BufferPool.free_page`.
        The incremental open page and the repack continuation page are
        forgotten if they are dropped.
        """
        keep: list[int] = []
        freed = 0
        for page_id in self.page_ids:
            payload: _NodePagePayload = self.buffer.fetch(page_id)
            if payload.live_nodes():
                keep.append(page_id)
                continue
            if self._open_page_id == page_id:
                self._open_page_id = None
            if self._repack_open_page_id == page_id:
                self._repack_open_page_id = None
            self.page_reads.pop(page_id, None)
            self.buffer.free_page(page_id)
            freed += 1
        self.page_ids = keep
        return freed

    # -- statistics ------------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)

    def used_bytes(self) -> int:
        """Total node bytes currently stored across all node pages."""
        total = 0
        for page_id in self.page_ids:
            payload: _NodePagePayload = self.buffer.fetch(page_id)
            total += payload.used_bytes
        return total

    def fill_factor(self) -> float:
        """Used fraction of the allocated node pages (0..1)."""
        if not self.page_ids:
            return 0.0
        return self.used_bytes() / (len(self.page_ids) * self.page_capacity)


def _plan_pages(
    root: Any,
    measure: Callable[[Any], tuple[int, Iterable[Any]]],
    page_capacity: int,
    tail_room: int = 0,
) -> list[list[tuple[Any, int]]]:
    """BFS-cap plan: which nodes share a page, in slot order.

    Each page is filled with the breadth-first top (*cap*) of one pending
    subtree — or several, while room remains — until its byte budget is
    exhausted; frontier children that did not make the cut seed later
    pages. A root-to-leaf traversal then crosses one page per cap, the
    minimum-page-height behaviour of [12], while seed-sharing keeps pages
    full.

    ``measure(handle)`` returns ``(size, child handles)``; handles are
    whatever the caller walks (node objects, :class:`NodeRef`). A non-zero
    ``tail_room`` makes group 0 the continuation of a page that already
    holds nodes: it offers only that much room and, unlike a fresh page
    (which always admits its first node, however large), may stay empty.

    Returns one ``[(handle, size), ...]`` list per page. Planning touches
    only local state, so evictions caused by ``measure`` are harmless.
    """
    groups: list[list[tuple[Any, int]]] = []
    pending: deque[Any] = deque([root])
    while pending:
        members: list[tuple[Any, int]] = []
        groups.append(members)
        shared, free = bool(tail_room), tail_room or page_capacity
        tail_room = 0
        overflow: deque[Any] = deque()
        while pending:
            # Pack the cap of the next pending subtree into this page; stop
            # opening new caps once one of them no longer fits at all.
            seed = pending.popleft()
            seed_size, _ = measure(seed)
            if (members or shared) and seed_size > free:
                overflow.appendleft(seed)
                break
            cap: deque[Any] = deque([seed])
            while cap:
                handle = cap.popleft()
                size, children = measure(handle)
                if (members or shared) and size > free:
                    overflow.append(handle)  # its subtree starts a later page
                    continue
                members.append((handle, size))
                free -= size
                cap.extend(children)
        pending.extendleft(reversed(overflow))
    return groups


def _write_pages(
    store: NodeStore,
    groups: list[list[tuple[Any, int]]],
    key_of: Callable[[Any], Any],
    build: Callable[[Any, dict[Any, NodeRef]], Any],
    tail: tuple[int, int] | None = None,
) -> dict[Any, NodeRef]:
    """Materialize planned groups into pages of ``store``, eviction-safely.

    Every page id is reserved up front, so each node's final address is
    known before anything is written; ``tail = (page_id, first_free_slot)``
    makes group 0 continue that existing page. ``build(handle, position)``
    returns the node to store, its children already wired through
    ``position`` (``key_of(handle)`` -> final :class:`NodeRef`, which is
    also what this function returns).

    The eviction-safety rule: ``build`` may read through the buffer pool
    and so evict *any* page, the destination included. A page's node list
    is therefore built completely first; only then is the destination
    fetched, appended to and marked dirty, with no pool access in between.
    """
    buffer = store.buffer
    pages: list[int] = []
    position: dict[Any, NodeRef] = {}
    for members in groups:
        if tail is not None and not pages:
            page_id, base = tail
        else:
            page_id, base = buffer.new_page(_NodePagePayload()), 0
            store.page_ids.append(page_id)
        pages.append(page_id)
        for slot, (handle, _size) in enumerate(members, base):
            position[key_of(handle)] = NodeRef(page_id, slot)
    for page_id, members in zip(pages, groups):
        if not members:
            continue  # a continuation page nothing fitted into
        nodes = [build(handle, position) for handle, _size in members]
        payload: _NodePagePayload = buffer.fetch(page_id)
        payload.slots.extend(nodes)
        for _handle, size in members:
            payload.slot_bytes.append(size)
            payload.used_bytes += size
        buffer.mark_dirty(page_id)
        store.num_nodes += len(members)
    return position


def pack_nodes(
    store: NodeStore, root: Any, children_of: Any
) -> NodeRef:
    """Write a fully-built in-memory tree into ``store``, BFS-cap packed.

    ``root`` is the root node object; ``children_of(node)`` returns an
    inner node's child node objects, aligned 1:1 with ``node.entries``
    (entry ``i`` points at child ``i``). Every node gets the ``(page,
    slot)`` that :func:`repack_subtree` would give it, each entry's child
    pointer is wired, and each page is written exactly once — the
    bulk-build fast path that skips the create-incrementally-then-repack
    double write.

    Pages are appended to ``store``; returns the root's :class:`NodeRef`.
    """

    def measure(node: Any) -> tuple[int, Iterable[Any]]:
        return node.approx_bytes(), children_of(node)

    def wired(node: Any, position: dict[int, NodeRef]) -> Any:
        if isinstance(node, InnerNode):
            for entry, child in zip(node.entries, children_of(node)):
                entry.child = position[id(child)]
        return node

    groups = _plan_pages(root, measure, store.page_capacity)
    return _write_pages(store, groups, id, wired)[id(root)]


@dataclass(frozen=True)
class SubtreeRepackStats:
    """What one repack step moved and reclaimed."""

    nodes_moved: int
    pages_allocated: int
    pages_freed: int


def repack_subtree(
    store: NodeStore, root: NodeRef
) -> tuple[NodeRef, SubtreeRepackStats]:
    """BFS-cap repack ONE subtree in place, inside the same store.

    The subtree under ``root`` is re-planned, materialized into dense
    pages appended to the *same* store, and only then are the old slots
    freed — so a crash at any point leaves either the old layout or (after
    the caller commits) the new one, never a half-moved tree. Pages left
    with no live slots are released immediately. With the tree's root as
    ``root`` this is the whole-tree clustering pass.

    Density across steps: the first new page continues the previous
    step's partially-filled tail page (``_repack_open_page_id``), so
    repacking a tree one subtree at a time converges to the same fill as
    a one-shot repack instead of paying a tail-fragment per subtree.

    Returns ``(new_root_ref, stats)``; the caller owns repairing the
    parent's downlink to ``new_root_ref`` before committing.
    """
    tail: tuple[int, int] | None = None
    tail_room = 0
    if store._repack_open_page_id in store.page_ids:
        payload: _NodePagePayload = store.buffer.fetch(
            store._repack_open_page_id
        )
        tail_room = max(store.page_capacity - payload.used_bytes, 0)
        if tail_room:
            tail = (store._repack_open_page_id, len(payload.slots))

    def measure(ref: NodeRef) -> tuple[int, Iterable[NodeRef]]:
        node = store.read(ref)
        if not isinstance(node, InnerNode):
            return node.approx_bytes(), ()
        return node.approx_bytes(), [
            e.child for e in node.entries if e.child is not None
        ]

    def relocated(ref: NodeRef, position: dict[NodeRef, NodeRef]) -> Any:
        node = store.read(ref)
        if not isinstance(node, InnerNode):
            return LeafNode(items=list(node.items))
        return InnerNode(
            predicate=node.predicate,
            entries=[
                Entry(
                    e.predicate,
                    position[e.child] if e.child is not None else None,
                )
                for e in node.entries
            ],
        )

    groups = _plan_pages(root, measure, store.page_capacity, tail_room)
    position = _write_pages(store, groups, lambda ref: ref, relocated, tail)

    # Retire the old copies; each free() takes back one of the num_nodes
    # increments of the write above, so the node count is unchanged.
    for ref in position:
        store.free(ref)
    pages_freed = store.drop_empty_pages()

    # The densest continuation candidate for the next step is the last
    # page this step wrote (BFS-cap leaves its tail partially filled).
    store._repack_open_page_id = position[groups[-1][-1][0]].page_id

    return position[root], SubtreeRepackStats(
        nodes_moved=len(position),
        pages_allocated=len(groups) - (tail is not None),
        pages_freed=pages_freed,
    )
