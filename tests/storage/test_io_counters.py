"""Deterministic I/O counters of the batched write path, pinned per opclass.

Each of the paper's five instantiations loads 400 seeded items through
``insert_many`` in ``SETTINGS.batch_size`` chunks — every chunk followed by
``flush_all`` and ``sync``, one commit per multi-row INSERT statement — and
then answers 200 equality probes, on a file-backed WAL disk behind a
buffer pool smaller than the index. The pool has to miss, so the counters
cover the read path as well as the write path: buffer misses (pages read),
dirty write-backs (pages written) and WAL records/bytes.

The counters are exact under the fixed seeds on one interpreter; the
±20 % band absorbs pickle/layout drift across Python versions. A higher
value is an I/O regression; change a literal only for an intended layout
or write-path change, and say why in the commit. Per-item ``insert`` (one
commit per row) lands outside the band for every opclass.
"""

from __future__ import annotations

import pytest

from repro.core.external import Query
from repro.geometry.box import Box
from repro.indexes import (
    KDTreeIndex,
    PMRQuadtreeIndex,
    PointQuadtreeIndex,
    SuffixTreeIndex,
    TrieIndex,
)
from repro.settings import SETTINGS
from repro.storage.buffer import BufferPool
from repro.storage.filedisk import FileDiskManager
from repro.workloads import random_points, random_segments, random_words

#: Buffer frames: fewer than the smallest index's pages, so searches miss.
POOL_PAGES = 2

ITEMS = 400
PROBES = 200
TOLERANCE = 0.20

_WORLD = Box(0.0, 0.0, 100.0, 100.0)

#: opclass -> (index factory, seeded items)
OPCLASSES = {
    "trie": (
        lambda pool: TrieIndex(pool, bucket_size=4),
        lambda: random_words(ITEMS, seed=301),
    ),
    "suffix": (
        lambda pool: SuffixTreeIndex(pool, bucket_size=4),
        lambda: random_words(ITEMS, seed=302),
    ),
    "kdtree": (
        lambda pool: KDTreeIndex(pool),
        lambda: random_points(ITEMS, seed=303),
    ),
    "pquad": (
        lambda pool: PointQuadtreeIndex(pool, bucket_size=4),
        lambda: random_points(ITEMS, seed=304),
    ),
    "pmr": (
        lambda pool: PMRQuadtreeIndex(pool, _WORLD, threshold=8),
        lambda: random_segments(ITEMS // 2, seed=305),
    ),
}

#: Measured at the default batch size (256) on CPython 3.11.
PINNED = {
    "trie": {"pages_read": 398, "pages_written": 104,
             "wal_bytes": 445604, "wal_records": 111, "matches": 211},
    "suffix": {"pages_read": 406, "pages_written": 86,
               "wal_bytes": 360572, "wal_records": 93, "matches": 230},
    "kdtree": {"pages_read": 751, "pages_written": 228,
               "wal_bytes": 1189546, "wal_records": 238, "matches": 200},
    "pquad": {"pages_read": 443, "pages_written": 147,
              "wal_bytes": 771398, "wal_records": 154, "matches": 200},
    "pmr": {"pages_read": 74, "pages_written": 6,
            "wal_bytes": 24503, "wal_records": 10, "matches": 200},
}


def _load_and_probe(kind: str, path: str) -> tuple[dict[str, int], int]:
    """Run one opclass's workload; returns its counters and index pages."""
    make, keys = OPCLASSES[kind]
    items = keys()
    probes = [items[i % len(items)] for i in range(0, PROBES * 3, 3)]
    disk = FileDiskManager(path)
    pool = BufferPool(disk, capacity=POOL_PAGES)
    index = make(pool)
    pairs = [(key, i) for i, key in enumerate(items)]
    for start in range(0, len(pairs), SETTINGS.batch_size):
        index.insert_many(pairs[start:start + SETTINGS.batch_size])
        pool.flush_all()
        disk.sync()  # one commit per multi-row INSERT statement
    equality = index.methods.equality_operator
    matches = sum(
        1 for probe in probes for _ in index.search(Query(equality, probe))
    )
    counters = {
        "pages_read": pool.stats.misses,
        "pages_written": pool.stats.dirty_writebacks,
        "wal_bytes": disk.wal.stats.bytes_appended,
        "wal_records": disk.wal.stats.records_appended,
        "matches": matches,
    }
    pages = len(index.store.page_ids)
    disk.close()
    return counters, pages


@pytest.mark.parametrize("kind", OPCLASSES)
def test_counters_match_pinned(kind, tmp_path):
    got, pages = _load_and_probe(kind, str(tmp_path / f"{kind}.dat"))
    assert pages > POOL_PAGES, "the index must not fit in the pool"
    assert got["pages_read"] > 0
    want = PINNED[kind]
    assert got["matches"] == want["matches"]
    for counter in ("pages_read", "pages_written", "wal_bytes", "wal_records"):
        low = want[counter] * (1 - TOLERANCE)
        high = want[counter] * (1 + TOLERANCE)
        assert low <= got[counter] <= high, (
            f"{kind}.{counter}: pinned {want[counter]}, measured "
            f"{got[counter]} (tolerance ±{TOLERANCE:.0%})"
        )
