"""Lightweight trace spans recorded to a bounded ring buffer.

``with span("index.descend", index=name):`` brackets one logical operation;
spans nest (the recorder keeps a stack, so each finished span knows its
depth and parent) and finished spans land in a ring buffer with monotonic
``time.perf_counter`` timings. The buffer is bounded, so leaving tracing on
during a long benchmark costs a fixed amount of memory.

This is deliberately *not* a distributed-tracing client: single process,
single thread (like :data:`repro.costmodel.CPU_OPS`), no sampling, no
export protocol. It exists so the tests can see *where* inside an operation
the time went — index descent vs heap fetch vs WAL.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True, slots=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start: float  # perf_counter seconds
    duration: float  # seconds
    depth: int  # 0 for a root span
    tags: dict[str, Any] = field(default_factory=dict)
    error: str | None = None  # exception type name when the body raised

    @property
    def duration_ms(self) -> float:
        return self.duration * 1000.0


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("recorder", "name", "tags", "span_id", "parent_id", "start")

    def __init__(
        self, recorder: "SpanRecorder", name: str, tags: dict[str, Any]
    ) -> None:
        self.recorder = recorder
        self.name = name
        self.tags = tags

    def __enter__(self) -> "_ActiveSpan":
        recorder = self.recorder
        self.parent_id = recorder._stack[-1] if recorder._stack else None
        self.span_id = next(recorder._ids)
        recorder._stack.append(self.span_id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        end = time.perf_counter()
        recorder = self.recorder
        # Pop back to this span even if a nested span leaked (generator
        # abandoned mid-iteration): everything above it is gone anyway.
        while recorder._stack and recorder._stack[-1] != self.span_id:
            recorder._stack.pop()
        if recorder._stack:
            recorder._stack.pop()
        depth = len(recorder._stack)
        recorder._buffer.append(
            SpanRecord(
                span_id=self.span_id,
                parent_id=self.parent_id,
                name=self.name,
                start=self.start,
                duration=end - self.start,
                depth=depth,
                tags=self.tags,
                error=exc_type.__name__ if exc_type is not None else None,
            )
        )


class _NullSpan:
    """No-op context manager handed out while recording is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


_NULL_SPAN = _NullSpan()


class SpanRecorder:
    """Bounded recorder of finished spans (newest kept, oldest dropped)."""

    def __init__(self, capacity: int = 4096, enabled: bool = True) -> None:
        self.capacity = capacity
        self.enabled = enabled
        self._buffer: deque[SpanRecord] = deque(maxlen=capacity)
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, **tags: Any) -> _ActiveSpan | _NullSpan:
        """Open a span; use as ``with recorder.span("buffer.fetch"): ...``."""
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name, tags)

    # -- inspection ----------------------------------------------------------

    def records(self, name: str | None = None) -> list[SpanRecord]:
        """Finished spans, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._buffer)
        return [r for r in self._buffer if r.name == name]

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._buffer)

    def total_seconds(self, name: str) -> float:
        """Summed duration of every recorded span called ``name``."""
        return sum(r.duration for r in self._buffer if r.name == name)

    def reset(self) -> None:
        """Drop all finished spans (in-flight stack untouched)."""
        self._buffer.clear()


#: The process-wide span recorder.
SPANS = SpanRecorder()


def span(name: str, **tags: Any) -> _ActiveSpan | _NullSpan:
    """Open a span on the global recorder: ``with span("index.descend"):``."""
    return SPANS.span(name, **tags)
