"""Simulated disk substrate: pages, disk manager, buffer pool, heap files.

The paper measures *disk-based* index performance inside PostgreSQL. A pure
Python reimplementation cannot reproduce the authors' wall-clock numbers, so
this layer makes the cost model explicit instead: every structure in the
library stores its state in fixed-size pages owned by a :class:`DiskManager`
and accessed through a :class:`BufferPool`. Buffer misses (logical page reads)
are the primary cost metric of every experiment; they are what the relative
performance ratios in the paper's figures measure.
"""

from repro.storage.page import (
    PAGE_SIZE,
    Page,
    approx_size,
    decode_page_image,
    encode_page_image,
    estimate_size,
)
from repro.storage.disk import DiskManager, DiskStats
from repro.storage.filedisk import FileDiskManager
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.heap import HeapFile, TupleId
from repro.storage.wal import WALRecord, WALStats, WriteAheadLog

__all__ = [
    "PAGE_SIZE",
    "Page",
    "approx_size",
    "decode_page_image",
    "encode_page_image",
    "estimate_size",
    "DiskManager",
    "DiskStats",
    "FileDiskManager",
    "BufferPool",
    "BufferStats",
    "HeapFile",
    "TupleId",
    "WALRecord",
    "WALStats",
    "WriteAheadLog",
]
