"""Access-path cost estimation (paper Section 4.2).

The paper's ``spgistcostestimate`` produces four numbers — selectivity,
correlation, startup cost, and total cost — using PostgreSQL's generic cost
machinery. We reproduce that shape with PostgreSQL's standard cost unit
constants. Costs are in abstract "page fetch" units: sequential page reads
cost 1.0, random page reads 4.0, per-tuple CPU 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.selectivity import TableStats, estimate_selectivity
from repro.errors import CatalogError

#: PostgreSQL's default cost constants (postgresql.conf).
SEQ_PAGE_COST = 1.0
RANDOM_PAGE_COST = 4.0
CPU_TUPLE_COST = 0.01
CPU_INDEX_TUPLE_COST = 0.005
CPU_OPERATOR_COST = 0.0025


@dataclass(frozen=True)
class CostEstimate:
    """The four quantities ``spgistcostestimate`` reports."""

    startup_cost: float
    total_cost: float
    selectivity: float
    correlation: float

    def __lt__(self, other: "CostEstimate") -> bool:
        return self.total_cost < other.total_cost


def seqscan_cost(heap_pages: int, row_count: int) -> CostEstimate:
    """Full heap scan: every page sequentially plus per-tuple CPU."""
    total = heap_pages * SEQ_PAGE_COST + row_count * (
        CPU_TUPLE_COST + CPU_OPERATOR_COST
    )
    return CostEstimate(0.0, total, 1.0, 0.0)


def spgist_cost_estimate(
    index_pages: int,
    index_page_height: int,
    stats: TableStats,
    heap_pages: int,
    restrict: str,
    operand: object = None,
    op: str | None = None,
) -> CostEstimate:
    """The ``spgistcostestimate`` analogue.

    - selectivity from the operator's restriction procedure;
    - correlation pinned to 0 — the paper: "there is no correlation between
      the index order and the underlying table order" — which makes every
      heap fetch a random page read;
    - startup: descending to the first leaf (page height random reads);
    - total: startup + the visited fraction of index pages + one random heap
      page per fetched tuple + CPU.

    ``op`` does not enter: every operator pays the same descent.
    """
    selectivity = estimate_selectivity(restrict, stats, operand)
    rows = selectivity * stats.row_count
    startup = index_page_height * RANDOM_PAGE_COST
    index_io = selectivity * index_pages * RANDOM_PAGE_COST
    heap_io = min(rows, float(heap_pages)) * RANDOM_PAGE_COST
    cpu = rows * (CPU_INDEX_TUPLE_COST + CPU_TUPLE_COST)
    return CostEstimate(startup, startup + index_io + heap_io + cpu,
                        selectivity, 0.0)


def btree_cost_estimate(
    index_pages: int,
    index_height: int,
    stats: TableStats,
    heap_pages: int,
    restrict: str,
    operand: object = None,
    op: str | None = None,
) -> CostEstimate:
    """``btcostestimate`` analogue.

    B+-tree leaf order matches key order, so scanned leaf pages are
    sequential after the descent. A ``?=`` pattern with a leading wildcard
    cannot constrain the descent: the whole leaf level must be read (the
    Section 6 sensitivity the trie does not share).
    """
    leading_wildcard = (
        op == "?=" and isinstance(operand, str) and operand.startswith("?")
    )
    if leading_wildcard:
        selectivity = 1.0
    else:
        selectivity = estimate_selectivity(restrict, stats, operand)
    rows = estimate_selectivity(restrict, stats, operand) * stats.row_count
    startup = index_height * RANDOM_PAGE_COST
    index_io = selectivity * index_pages * SEQ_PAGE_COST
    heap_io = min(rows, float(heap_pages)) * RANDOM_PAGE_COST
    cpu = selectivity * stats.row_count * CPU_INDEX_TUPLE_COST + rows * CPU_TUPLE_COST
    return CostEstimate(startup, startup + index_io + heap_io + cpu,
                        selectivity, 1.0)


#: ``pg_am.amcostestimate`` names -> estimators, resolved the way
#: :mod:`repro.engine.selectivity` resolves restriction procedures. R-tree
#: and hash entries carry no key order either, so they are costed in the
#: SP-GiST shape.
_AM_COST_ESTIMATORS: dict[str, Callable[..., CostEstimate]] = {
    "spgistcostestimate": spgist_cost_estimate,
    "btcostestimate": btree_cost_estimate,
    "rtcostestimate": spgist_cost_estimate,
    "hashcostestimate": spgist_cost_estimate,
}


def cost_estimator(name: str) -> Callable[..., CostEstimate]:
    """The estimator an ``amcostestimate`` names; each takes ``(index_pages,
    index_page_height, stats, heap_pages, restrict, operand, op=...)``."""
    try:
        return _AM_COST_ESTIMATORS[name]
    except KeyError:
        raise CatalogError(f"unknown cost estimator {name!r}") from None
