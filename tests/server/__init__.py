"""Helpers shared by the server tests."""

from __future__ import annotations

import threading
from typing import Any


class Parked:
    """``mgr.execute(session, sql, **kwargs)`` on a thread of its own.

    ``entered`` is set when the statement has its session's turn and calls
    ``Session.execute``, so it is admitted and counted in flight. A test
    that holds ``mgr.engine_mutex`` parks it there until it lets go.
    """

    def __init__(self, mgr: Any, session: Any, sql: str, **kwargs: Any) -> None:
        self.entered = threading.Event()
        self.result: Any = None
        self.error: BaseException | None = None
        inner = session.execute

        def execute(*args: Any, **kw: Any) -> Any:
            self.entered.set()
            return inner(*args, **kw)

        session.execute = execute
        self._thread = threading.Thread(
            target=self._run, args=(mgr, session, sql, kwargs), daemon=True
        )
        self._thread.start()

    def _run(self, mgr: Any, session: Any, sql: str, kwargs: dict) -> None:
        try:
            self.result = mgr.execute(session, sql, **kwargs)
        except Exception as exc:  # noqa: BLE001 - re-raised by join()
            self.error = exc

    def join(self, timeout: float = 10.0) -> Any:
        """Wait for the statement; return its result or raise its error."""
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "statement still running"
        if self.error is not None:
            raise self.error
        return self.result
