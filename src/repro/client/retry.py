"""Retry policy: error classification, full-jitter backoff, deadlines.

Classification is the heart of safe retrying. Three questions decide a
failure's fate:

1. **Is the error transient?** Deadlock victims, shed/overload
   rejections, drain goodbyes, open breakers, and lost connections are;
   a parse error or constraint violation is not — resending it buys
   nothing.
2. **Could the statement have executed?** A lost connection after the
   request was sent is *ambiguous*: the statement may have run and the
   ack died on the wire. Blind resends would double-apply, so the driver
   only retries ambiguous failures when the statement carries an
   idempotency key the server dedup cache can absorb.
3. **Is there budget left?** Every retry loop runs under an absolute
   deadline; backoff sleeps are clipped to the remaining budget so a
   call can never outlive its ``client_op_timeout``.

Backoff is exponential with **full jitter** (AWS architecture-blog
style): sleep ``uniform(0, min(cap, base * 2**attempt))``. Deterministic
tests inject a seeded :class:`random.Random`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.errors import (
    CircuitOpenError,
    ConnectionLostError,
    DeadlockError,
    PoolTimeoutError,
    ProtocolError,
    ReplicationError,
    RetriesExceededError,
    ServerDrainingError,
    ServerOverloadedError,
)
from repro.settings import SETTINGS

#: Transient failures where the statement definitely did NOT execute
#: (rejected at admission, or aborted before it ran): always safe
#: to retry, keyed or not.
RETRY_SAFE = (
    DeadlockError,          # victim rolled back; rerun expected to succeed
    ServerOverloadedError,  # rejected at admission, never ran
    ServerDrainingError,    # refused (or cleanly aborted) with rollback
    PoolTimeoutError,       # never left the client
    CircuitOpenError,       # never left the client
)

#: Transient failures where the statement MAY have executed (the ack was
#: lost, not necessarily the request): retry only with an idempotency
#: key, or by whole-transaction replay with commit recovery.
RETRY_AMBIGUOUS = (ConnectionLostError,)

#: Never retried: the in-doubt marker. A ReplicationError means a commit
#: is locally durable but unacknowledged — resending could double-apply,
#: and the server poisons the statement's idempotency key so even a
#: keyed retry re-raises instead of re-executing.
NEVER_RETRY = (ReplicationError, ProtocolError)


@dataclass
class RetryPolicy:
    """Bounded retry loop parameters; defaults come from ``SETTINGS``."""

    max_retries: int = field(
        default_factory=lambda: SETTINGS.client_max_retries)
    backoff_base: float = field(
        default_factory=lambda: SETTINGS.client_backoff_base)
    backoff_cap: float = field(
        default_factory=lambda: SETTINGS.client_backoff_cap)
    #: Injectable for deterministic tests/chaos schedules.
    rng: random.Random = field(default_factory=random.Random)

    def classify(self, exc: BaseException, *, keyed: bool = False) -> bool:
        """True iff ``exc`` is retryable for this statement.

        ``keyed`` marks statements protected by an idempotency key (or by
        the caller's own replay protocol): only those may retry the
        ambiguous connection-loss failures.
        """
        if isinstance(exc, NEVER_RETRY):
            return False
        if isinstance(exc, RETRY_SAFE):
            return True
        if isinstance(exc, RETRY_AMBIGUOUS):
            return keyed
        return False

    def backoff(self, attempt: int) -> float:
        """Full-jitter sleep for the given 0-based attempt number."""
        ceiling = min(self.backoff_cap, self.backoff_base * (2 ** attempt))
        return self.rng.uniform(0.0, ceiling)

    def sleep(self, attempt: int, deadline: float | None) -> None:
        """Back off, clipped so the sleep never crosses the deadline."""
        delay = self.backoff(attempt)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    def give_up(
        self, attempt: int, deadline: float | None
    ) -> bool:
        """True when the loop must stop: attempts or deadline exhausted."""
        if attempt >= self.max_retries:
            return True
        return deadline is not None and time.monotonic() >= deadline


def remaining(deadline: float | None) -> float | None:
    """Seconds left until the absolute monotonic ``deadline`` (None = ∞).

    Raises :class:`RetriesExceededError` when the budget is already gone,
    so every deadline check reads the same at each call site.
    """
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise RetriesExceededError("operation deadline expired")
    return left
