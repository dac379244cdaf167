"""One place for every timing/limit knob the subsystems used to scatter.

Before this module, each layer hard-coded its own constants: the buffer
pool's transient-fault retry budget, the WAL's group-commit flush
threshold, the replica set's heartbeat/lag bounds. The server layer (PR 6)
adds a second family — lock-wait and statement timeouts, session and
admission bounds — and tests/chaos schedules need to tighten all of
them deterministically. So: one :class:`Settings` dataclass, one process
default (:data:`SETTINGS`), and ``REPRO_*`` environment overrides.

Layers resolve their defaults *at call time* (``None`` parameter ->
``SETTINGS.<field>``), so a test that assigns ``SETTINGS.lock_timeout``
(or exports ``REPRO_LOCK_TIMEOUT`` before the process starts) tightens
every component built afterwards without plumbing arguments through.

Override naming: field ``lock_timeout`` <- env ``REPRO_LOCK_TIMEOUT``,
parsed by the field's type (int/float/bool). Unknown variables are
ignored; malformed values raise :class:`~repro.errors.ConfigError` at
import — naming the offending variable — loudly, rather than silently
running with defaults or surfacing a bare ``ValueError`` deep inside
whichever constructor first reads the field.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass
class Settings:
    """Every consolidated timing/limit constant, with its prior home noted."""

    # -- server: locks and statements (new in PR 6) ---------------------------
    #: Seconds a lock acquisition may block before LockTimeoutError.
    lock_timeout: float = 5.0
    #: Seconds one statement may run (including lock waits) before
    #: StatementTimeoutError.
    statement_timeout: float = 10.0
    #: Rows between cooperative deadline checks inside long scans.
    deadline_check_interval: int = 64

    # -- server: sessions and admission control (new in PR 6) -----------------
    #: Concurrent sessions a SessionManager accepts.
    max_sessions: int = 1024
    #: Statements in flight (admitted, not yet finished) beyond which new
    #: ones are rejected with ServerOverloadedError (backpressure).
    max_queue: int = 64
    #: Statements in flight at which read-only statements shed to
    #: standby reads.
    shed_threshold: int = 32

    # -- executor: batch-at-a-time row processing (new in PR 8) ---------------
    #: Rows per executor batch. One knob shared by the batched read path
    #: (scan nodes yield row batches of this size) and the batched write
    #: path (``insert_many`` chunking in benches/loaders), replacing the
    #: scattered per-call-site literals. ``1`` degenerates to
    #: tuple-at-a-time semantics (the differential oracle sweeps this).
    batch_size: int = 256

    # -- buffer pool (was storage/buffer.py DEFAULT_MAX_RETRIES/_BACKOFF) -----
    #: Bounded retries for transient disk faults.
    disk_max_retries: int = 3
    #: Seconds of backoff before the first retry; doubles per attempt.
    disk_retry_backoff: float = 0.001

    # -- WAL (was storage/wal.py DEFAULT_FLUSH_THRESHOLD) ---------------------
    #: Group-commit flush threshold in buffered bytes.
    wal_flush_threshold: int = 256 * 1024

    # -- replication (was replicaset.py keyword defaults) ---------------------
    #: Consecutive missed heartbeats before failover is declared.
    replication_heartbeat_timeout: int = 3
    #: Max commits a standby may trail and still serve routed reads.
    replication_max_lag: int = 2

    # -- wire protocol and graceful drain (new in PR 9) -----------------------
    #: Largest request/response line either side will read; longer frames
    #: fail with a typed ProtocolError instead of unbounded buffering.
    max_message_bytes: int = 1 << 20
    #: Entries the server's idempotency-key dedup cache retains (LRU).
    dedup_cache_size: int = 4096
    #: Seconds SQLServer.drain() waits for in-flight statements before
    #: cleanly aborting the stragglers.
    drain_timeout: float = 5.0

    # -- client driver: pool, retries, breakers (new in PR 9) -----------------
    #: Pooled connections per endpoint.
    client_pool_size: int = 4
    #: Seconds an acquire() may wait for a pooled connection.
    client_acquire_timeout: float = 5.0
    #: Seconds to establish one TCP connection.
    client_connect_timeout: float = 2.0
    #: Overall per-operation deadline (connect + queue + execute + retries).
    client_op_timeout: float = 15.0
    #: Retry attempts before RetriesExceededError.
    client_max_retries: int = 8
    #: First backoff sleep in seconds; doubles per attempt (full jitter).
    client_backoff_base: float = 0.01
    #: Backoff ceiling in seconds.
    client_backoff_cap: float = 0.5
    #: Seconds a pooled connection may sit idle before a ping precedes reuse.
    client_health_check_interval: float = 30.0
    #: Consecutive endpoint failures that trip its breaker open.
    breaker_failure_threshold: int = 5
    #: Seconds an open breaker waits before letting one probe through.
    breaker_reset_timeout: float = 0.25

    # -- cluster: sharding and distributed commit (new in PR 10) --------------
    #: Rows a shard may hold before ``Cluster.maybe_split`` splits it.
    cluster_split_threshold: int = 4096
    #: Virtual hash buckets for hash-partitioned (string) shard maps; more
    #: buckets mean finer-grained splits at the cost of map size.
    cluster_hash_buckets: int = 64

    #: Fields that must parse > 0 from the environment; the rest of the
    #: numeric fields must be >= 0 (0 commonly means "disabled").
    _POSITIVE = frozenset({
        "max_sessions", "max_queue", "batch_size",
        "deadline_check_interval", "wal_flush_threshold",
        "replication_heartbeat_timeout", "max_message_bytes",
        "dedup_cache_size", "client_pool_size",
        "breaker_failure_threshold",
        "cluster_split_threshold", "cluster_hash_buckets",
    })

    @classmethod
    def from_env(cls, env: dict[str, str] | None = None) -> "Settings":
        """Defaults overlaid with ``REPRO_<FIELD>`` environment variables.

        Malformed or out-of-range values raise
        :class:`~repro.errors.ConfigError` naming the variable: a typo'd
        override should stop the process at import, not resurface as a
        ``ValueError`` inside whichever constructor reads the field first.
        """
        env = os.environ if env is None else env
        overrides: dict[str, object] = {}
        for field in dataclasses.fields(cls):
            var = f"REPRO_{field.name.upper()}"
            raw = env.get(var)
            if raw is None:
                continue
            if field.type in ("int", int):
                kind, parse = "integer", int
            elif field.type in ("float", float):
                kind, parse = "number", float
            else:  # pragma: no cover - no such fields today
                overrides[field.name] = raw
                continue
            try:
                value = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{var}: expected {kind!s}, got {raw!r}"
                ) from None
            if field.name in cls._POSITIVE:
                if value <= 0:
                    raise ConfigError(
                        f"{var}: must be a positive {kind}, got {raw!r}"
                    )
            elif value < 0:
                raise ConfigError(
                    f"{var}: must be a non-negative {kind}, got {raw!r}"
                )
            overrides[field.name] = value
        return cls(**overrides)

    def replace(self, **overrides: object) -> "Settings":
        """A copy with ``overrides`` applied (tests tighten bounds with it)."""
        return dataclasses.replace(self, **overrides)


#: The process-wide settings every layer resolves ``None`` defaults from.
SETTINGS = Settings.from_env()
