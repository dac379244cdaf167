"""Index-scan cursors: the ``pg_am`` scan interface of Table 2.

The paper registers SP-GiST's interface routines ``spgistbeginscan``,
``spgistgettuple``, ``spgistrescan``, ``spgistendscan``, ``spgistmarkpos``
and ``spgistrestrpos``. :class:`IndexScanCursor` realizes that contract on
top of the generator-based ``search``/``nn_search``: incremental
``get-next``, restartable scans, and mark/restore positioning (needed by
merge joins and scrollable cursors in PostgreSQL).

Already-produced tuples are buffered so ``restore`` can rewind without
re-running the traversal; the buffer grows only as far as the scan has
actually advanced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.core.external import Query
from repro.errors import IndexError_
from repro.settings import SETTINGS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tree import SPGiSTIndex


class IndexScanCursor:
    """A positioned scan over one index and one query.

    ``spgistbeginscan`` is the constructor; :meth:`get_next` is
    ``spgistgettuple``; :meth:`rescan`, :meth:`mark`, :meth:`restore` and
    :meth:`close` map to their am-routine namesakes. Iteration protocol is
    supported for convenience (``for item in cursor``).
    """

    def __init__(self, index: "SPGiSTIndex", query: Query) -> None:
        self.index = index
        self.query = query
        self._source: Iterator | None = None
        self._buffer: list[Any] = []
        self._position = 0
        self._marked: int | None = None
        self._closed = False
        self._start()

    def _start(self) -> None:
        if self.query.op == "@@":
            self._source = self.index.nn_search(self.query.operand)
        else:
            self._source = self.index.search(self.query)
        self._buffer = []
        self._position = 0
        self._marked = None

    # -- amgettuple -----------------------------------------------------------------

    def get_next(self) -> Any | None:
        """Return the next tuple, or None when the scan is exhausted."""
        if self._closed:
            raise IndexError_("cursor is closed")
        if self._position < len(self._buffer):
            item = self._buffer[self._position]
            self._position += 1
            return item
        assert self._source is not None
        try:
            item = next(self._source)
        except StopIteration:
            return None
        self._buffer.append(item)
        self._position += 1
        return item

    def fetch(self, count: int | None = None) -> list[Any]:
        """Up to ``count`` tuples (the paper's cursor-controlled NN usage).

        ``None`` resolves to ``SETTINGS.batch_size`` — the cursor's
        batch-fetch granularity matches the executor's row batches, so
        server-side FETCH pagination pulls whole batches by default.
        """
        if count is None:
            count = SETTINGS.batch_size
        out = []
        for _ in range(count):
            item = self.get_next()
            if item is None:
                break
            out.append(item)
        return out

    def __iter__(self) -> Iterator[Any]:
        while True:
            item = self.get_next()
            if item is None:
                return
            yield item

    # -- amrescan ---------------------------------------------------------------------

    def rescan(self, query: Query | None = None) -> None:
        """Restart the scan, optionally with a new predicate."""
        if self._closed:
            raise IndexError_("cursor is closed")
        if query is not None:
            self.query = query
        self._start()

    # -- ammarkpos / amrestrpos ----------------------------------------------------------

    def mark(self) -> None:
        """Remember the current position (``spgistmarkpos``)."""
        if self._closed:
            raise IndexError_("cursor is closed")
        self._marked = self._position

    def restore(self) -> None:
        """Rewind to the marked position (``spgistrestrpos``)."""
        if self._closed:
            raise IndexError_("cursor is closed")
        if self._marked is None:
            raise IndexError_("no position has been marked")
        self._position = self._marked

    # -- amendscan ---------------------------------------------------------------------

    def close(self) -> None:
        """End the scan and drop its state (``spgistendscan``)."""
        self._closed = True
        self._source = None
        self._buffer = []

    def __enter__(self) -> "IndexScanCursor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
