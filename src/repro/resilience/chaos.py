"""End-to-end chaos harness for the replication subsystem.

Runs randomized, fully seeded schedules against a live
:class:`~repro.replication.ReplicaSet`: client writes (committed AND
rolled back), routed reads, VACUUM passes, online REPACK steps (bounded
subtree re-clustering replicated as ordinary page images), node crashes
(primary and standby), restarts, and shipping channels that drop, corrupt,
reorder, and duplicate frames — then heals the cluster and checks the invariants that
define correct replication:

1. **Zero acknowledged-commit loss** — every row whose commit was
   quorum-acknowledged is present on the (possibly promoted) primary.
2. **Logical equivalence** — after catch-up, every surviving node's heap
   holds exactly the same rows, and on each node the SP-GiST index agrees
   with its own heap key-for-key (the PR 2 differential-oracle check, run
   per node) while :func:`~repro.resilience.check.spgist_check` reports a
   clean structure.
3. **Bounded failover** — every automatic failover completed within
   ``heartbeat_timeout + 1`` ticks of the primary's crash.
4. **Snapshot isolation across failover** — a row written by a rolled-back
   transaction is never visible anywhere, ever: not to a routed read
   mid-schedule, not on any node after healing, not after a VACUUM, and
   not on a standby promoted mid-stream (its clog replicates through the
   meta page and the commit records' xids).

The failure model matches the write path's guarantee: with ``quorum=1``
acknowledged commits survive any single-node loss, so schedules keep at
most one node down at a time (the documented failure bound; see DESIGN.md
§9). Everything — fault rates, event order, crash points, keys — derives
from one integer seed, so any red run reproduces exactly from the seed the
harness prints.

This module also holds what the sibling harnesses share — the threaded
session-server one (:mod:`~repro.resilience.chaos_mt`), the network-edge
one (:mod:`~repro.resilience.chaos_net`) and the sharded-cluster one
(:mod:`~repro.resilience.chaos_cluster`): the cross-thread accounting,
the campaign runner, and the one CLI (``--threaded`` / ``--net`` /
``--cluster`` pick the harness)::

    PYTHONPATH=src python -m repro.resilience.chaos --schedules 25 --seed 0
    PYTHONPATH=src python -m repro.resilience.chaos --cluster --schedules 12
    PYTHONPATH=src python -m repro.resilience.chaos --seed 1234 --schedules 1 \\
        --transcript chaos-transcript.json   # replay one seed, keep evidence
"""

from __future__ import annotations

import json
import random
import tempfile
import threading
from typing import Any, Callable

from repro.replication import ReplicaSet
from repro.resilience.check import spgist_check
from repro.resilience.faults import ChannelFaultPolicy

#: Schema kinds a schedule may draw (one string, one spatial — exercises
#: both predicate families through replication).
CHAOS_KINDS = ("trie", "pquad")

#: Differential-oracle probes per node during final verification; keys are
#: sampled beyond this count to bound schedule cost.
MAX_PROBES = 30


def _make_key(kind: str, rng: random.Random, counter: int) -> Any:
    if kind == "trie":
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        word = "".join(rng.choice(alphabet) for _ in range(rng.randint(3, 8)))
        return f"{word}{counter}"
    from repro.geometry.point import Point

    # The counter in the low digits keeps every generated point distinct.
    return Point(
        round(rng.uniform(0.0, 100.0), 3) + counter * 1e-6,
        round(rng.uniform(0.0, 100.0), 3),
    )


def run_schedule(
    seed: int,
    steps: int = 32,
    directory: str | None = None,
) -> dict[str, Any]:
    """Run one seeded chaos schedule; returns its transcript.

    The transcript dict carries the drawn configuration, the event list,
    final statistics, and ``ok``/``failures`` — it is what the CI job
    uploads when a schedule goes red.
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="chaos-") as tmp:
            return run_schedule(seed, steps=steps, directory=tmp)

    rng = random.Random(seed)
    kind = rng.choice(CHAOS_KINDS)
    replicas = rng.randint(2, 3)
    heartbeat_timeout = rng.randint(2, 4)
    max_lag = rng.randint(1, 3)
    policies = [
        ChannelFaultPolicy(
            seed=rng.randrange(2**31),
            drop_rate=round(rng.uniform(0.0, 0.25), 3),
            corrupt_rate=round(rng.uniform(0.0, 0.15), 3),
            reorder_rate=round(rng.uniform(0.0, 0.25), 3),
            duplicate_rate=round(rng.uniform(0.0, 0.15), 3),
        )
        for _ in range(replicas)
    ]
    transcript: dict[str, Any] = {
        "seed": seed,
        "kind": kind,
        "replicas": replicas,
        "quorum": 1,
        "heartbeat_timeout": heartbeat_timeout,
        "max_lag": max_lag,
        "channel_policies": [vars(policy) for policy in policies],
        "events": [],
        "failures": [],
    }
    events: list[dict[str, Any]] = transcript["events"]
    failures: list[str] = transcript["failures"]

    rs = ReplicaSet(
        directory,
        kind=kind,
        replicas=replicas,
        quorum=1,
        heartbeat_timeout=heartbeat_timeout,
        max_lag=max_lag,
        fsync=False,  # crashes are simulated by truncation; see DESIGN.md §9
        channel_policies=policies,
    )
    equality = rs.primary.index.methods.equality_operator

    acked: dict[Any, Any] = {}  # key -> id of quorum-acknowledged rows
    #: key -> id of rows written by ROLLED-BACK transactions. The abort
    #: verdict lands in the clog before the commit ships, so these must
    #: never be visible anywhere — acknowledged or not.
    aborted: dict[Any, Any] = {}
    unacked_writes = 0
    down = None  # the failure bound: at most one node down at a time
    primary_crash_tick: int | None = None
    seen_failovers = 0
    counter = 0

    def note_failovers() -> None:
        nonlocal seen_failovers, primary_crash_tick
        while seen_failovers < len(rs.failover_log):
            record = rs.failover_log[seen_failovers]
            seen_failovers += 1
            if primary_crash_tick is not None:
                taken = record["tick"] - primary_crash_tick
                bound = heartbeat_timeout + 1
                if taken > bound:
                    failures.append(
                        f"failover at tick {record['tick']} took {taken} "
                        f"ticks (> bound {bound})"
                    )
                events.append(
                    {"event": "failover", "tick": record["tick"],
                     "elected": record["elected"], "ticks": taken}
                )
                primary_crash_tick = None

    for step in range(steps):
        roll = rng.random()
        if roll < 0.40:  # client write (1-3 rows)
            rows = []
            for _ in range(rng.randint(1, 3)):
                counter += 1
                rows.append((_make_key(kind, rng, counter), counter))
            try:
                seq = rs.client_write(rows)
            except Exception as exc:  # not acknowledged: in-doubt, no claim
                unacked_writes += 1
                events.append(
                    {"event": "write-unacked", "step": step,
                     "error": type(exc).__name__}
                )
            else:
                for key, value in rows:
                    acked[key] = value
                events.append(
                    {"event": "write-acked", "step": step, "seq": seq,
                     "rows": len(rows)}
                )
        elif roll < 0.48:  # transactional write that ROLLS BACK
            rows = []
            for _ in range(rng.randint(1, 3)):
                counter += 1
                rows.append((_make_key(kind, rng, counter), counter))
            # Visible-nowhere applies whether or not the commit was
            # acknowledged: the rollback verdict precedes the commit.
            for key, value in rows:
                aborted[key] = value
            try:
                seq = rs.client_write_aborted(rows)
            except Exception as exc:
                events.append(
                    {"event": "abort-unacked", "step": step,
                     "error": type(exc).__name__}
                )
            else:
                events.append(
                    {"event": "write-aborted", "step": step, "seq": seq,
                     "rows": len(rows)}
                )
        elif roll < 0.65 and (acked or aborted):  # routed read
            probe_aborted = bool(aborted) and (
                not acked or rng.random() < 0.35
            )
            pool = aborted if probe_aborted else acked
            key = rng.choice(list(pool))
            try:
                result = rs.client_read(equality, key)
            except Exception as exc:
                events.append(
                    {"event": "read-failed", "step": step,
                     "error": type(exc).__name__}
                )
            else:
                if probe_aborted:
                    if result:
                        failures.append(
                            f"dirty read: rolled-back key {key!r} visible "
                            f"on {rs.last_served_by}: {result!r}"
                        )
                else:
                    wrong = [row for row in result if row[0] != key]
                    if wrong:
                        failures.append(
                            f"read of {key!r} on {rs.last_served_by} "
                            f"returned non-matching rows {wrong!r}"
                        )
                events.append(
                    {"event": "read", "step": step,
                     "served_by": rs.last_served_by, "rows": len(result),
                     "aborted_probe": probe_aborted}
                )
        elif roll < 0.70:  # VACUUM the primary, replicate the reclamation
            try:
                seq = rs.client_vacuum()
            except Exception as exc:
                events.append(
                    {"event": "vacuum-failed", "step": step,
                     "error": type(exc).__name__}
                )
            else:
                events.append({"event": "vacuum", "step": step, "seq": seq})
        elif roll < 0.78:  # crash one node (respecting the failure bound)
            if down is None:
                victim = (
                    rs.primary
                    if rng.random() < 0.5
                    else rng.choice(rs.nodes[1:])
                )
                if victim is rs.primary:
                    primary_crash_tick = rs.clock
                victim.crash(seed=rng.randrange(2**31))
                down = victim
                events.append(
                    {"event": "crash", "step": step, "node": victim.name,
                     "was_primary": victim is rs.primary}
                )
        elif roll < 0.9:  # restart the down node
            if down is not None:
                if down is rs.primary:
                    primary_crash_tick = None  # recovered before failover
                rs.rejoin(down)
                events.append(
                    {"event": "restart", "step": step, "node": down.name}
                )
                down = None
        elif roll < 0.95:  # online REPACK: one bounded re-clustering step
            try:
                seq = rs.client_repack(max_subtrees=1)
            except Exception as exc:
                events.append(
                    {"event": "repack-failed", "step": step,
                     "error": type(exc).__name__}
                )
            else:
                events.append({"event": "repack", "step": step, "seq": seq})
        else:
            events.append({"event": "tick", "step": step})
        rs.tick()
        note_failovers()

    # -- heal and verify -------------------------------------------------------
    if down is not None:
        if down is rs.primary:
            primary_crash_tick = None
        rs.rejoin(down)
    for _ in range(heartbeat_timeout + 2):
        rs.tick()  # let any in-flight failover finish
    note_failovers()
    if rs.primary.crashed:
        failures.append("no live primary after healing")
    elif not rs.catch_up():
        failures.append("standbys failed to catch up after healing")
    else:
        _verify(rs, acked, aborted, failures)

    transcript["ok"] = not failures
    transcript["stats"] = {
        "acked_rows": len(acked),
        "aborted_rows": len(aborted),
        "unacked_writes": unacked_writes,
        "failovers": len(rs.failover_log),
        "final_commit_seq": rs.primary.commit_seq,
        "clock": rs.clock,
    }
    rs.close()
    return transcript


def _verify(
    rs: ReplicaSet, acked: dict, aborted: dict, failures: list[str]
) -> None:
    """The end-state invariants: no acked loss, equivalence, clean checks."""
    primary_rows = set(rs.primary.rows())
    lost = {
        (key, value)
        for key, value in acked.items()
        if (key, value) not in primary_rows
    }
    if lost:
        failures.append(
            f"{len(lost)} acknowledged row(s) lost, e.g. "
            f"{sorted(lost, key=repr)[:3]!r}"
        )
    for node in rs.nodes:
        dirty = {
            (key, value)
            for key, value in aborted.items()
            if (key, value) in set(node.rows())
        }
        if dirty:
            failures.append(
                f"{len(dirty)} rolled-back row(s) visible on {node.name} "
                f"after healing, e.g. {sorted(dirty, key=repr)[:3]!r}"
            )
    row_sets = {node.name: frozenset(node.rows()) for node in rs.nodes}
    if len(set(row_sets.values())) != 1:
        counts = {name: len(rows) for name, rows in row_sets.items()}
        failures.append(f"nodes are not logically equivalent: {counts}")
    rng = random.Random(0)
    probes = list(acked)
    if len(probes) > MAX_PROBES:
        probes = rng.sample(probes, MAX_PROBES)
    for node in rs.nodes:
        equality = node.index.methods.equality_operator
        assert node.table is not None
        heap_rows = list(node.rows())
        for key in probes:
            via_index = sorted(
                node.search(equality, key), key=repr
            )
            via_heap = sorted(
                (row for row in heap_rows if row[0] == key), key=repr
            )
            if via_index != via_heap:
                failures.append(
                    f"differential mismatch on {node.name} for key {key!r}: "
                    f"index={via_index!r} heap={via_heap!r}"
                )
                break
        report = spgist_check(node.index)
        if not report.ok:
            failures.append(
                f"spgist_check failed on {node.name}: {report.describe()}"
            )


class Shared:
    """Cross-thread accounting for one schedule (one lock guards it all)."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.failures: list[str] = []
        self.events: list[dict[str, Any]] = []
        self.counts: dict[str, int] = {}

    def fail(self, message: str) -> None:
        """Record an invariant violation (turns the schedule red)."""
        with self.lock:
            self.failures.append(message)

    def event(self, **fields: Any) -> None:
        """Append one transcript event."""
        with self.lock:
            self.events.append(fields)

    def bump(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the named counter of the schedule's ``stats``."""
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + n


def locked_shed(mgr: Any, rdb: Any, statement: Any) -> Any:
    """Standby read under the engine mutex.

    Shed reads race the schedule's ticks, so the shed path takes the same
    mutex statements do.
    """
    with mgr.engine_mutex:
        return rdb.standby_reader(statement)


def run_campaign(
    schedules: int,
    base_seed: int = 0,
    schedule: Callable[..., dict[str, Any]] = run_schedule,
    **params: Any,
) -> dict[str, Any]:
    """Run ``schedules`` seeded schedules; returns the campaign summary.

    ``schedule`` is any harness's schedule function (this module's
    :func:`run_schedule` by default) and ``params`` its keyword arguments.
    Schedule ``i`` uses seed ``base_seed + i``, so any failure reproduces
    with ``schedule(that_seed, **params)`` alone. Every numeric entry of a
    transcript's ``stats`` (and ``dedup``, where a harness reports it) is
    summed into ``totals``.
    """
    failed: list[dict[str, Any]] = []
    totals: dict[str, int] = {}
    for i in range(schedules):
        transcript = schedule(base_seed + i, **params)
        for key, value in transcript["stats"].items():
            totals[key] = totals.get(key, 0) + value
        for key, value in transcript.get("dedup", {}).items():
            totals[f"dedup_{key}"] = totals.get(f"dedup_{key}", 0) + value
        if not transcript["ok"]:
            failed.append(transcript)
    return {
        "schedules": schedules,
        "base_seed": base_seed,
        **params,
        "failed": failed,
        "ok": not failed,
        "totals": totals,
    }


#: CLI flag -> (module, schedule function, {option: default}, default
#: number of schedules). ``None`` is this module's replication harness.
HARNESSES: dict[str | None, tuple[str, str, dict[str, int], int]] = {
    None: (__name__, "run_schedule", {"steps": 32}, 25),
    "threaded": (
        "repro.resilience.chaos_mt", "run_threaded_schedule",
        {"sessions": 16, "statements": 10}, 3,
    ),
    "net": (
        "repro.resilience.chaos_net", "run_net_schedule",
        {"clients": 4, "statements": 12}, 4,
    ),
    "cluster": (
        "repro.resilience.chaos_cluster", "run_cluster_schedule",
        {"ops": 40, "shards": 3}, 10,
    ),
}


def main(argv: list[str] | None = None) -> int:
    """The one chaos CLI; exit 1 on any failing schedule.

    ``--threaded`` / ``--net`` / ``--cluster`` pick the harness (default:
    the replication harness of this module); every harness takes
    ``--seed``, ``--schedules`` and ``--transcript`` plus its own sizing
    options. ``--transcript`` writes the campaign summary, failing
    transcripts included — or, for a one-schedule run, that schedule's
    own transcript, green or red.
    """
    import argparse
    import importlib
    import sys

    argv = list(sys.argv[1:] if argv is None else argv)
    picked = [flag for flag in HARNESSES if flag and f"--{flag}" in argv]
    flag = picked[0] if picked else None
    module, function, options, default_schedules = HARNESSES[flag]
    schedule = getattr(importlib.import_module(module), function)

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    harness = parser.add_mutually_exclusive_group()
    for name in HARNESSES:
        if name:
            harness.add_argument(f"--{name}", action="store_true")
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; schedule i runs with seed+i (default 0)",
    )
    parser.add_argument(
        "--schedules", type=int, default=default_schedules,
        help=f"seeded schedules to run (default {default_schedules})",
    )
    for name, default in options.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    parser.add_argument(
        "--transcript", default=None,
        help="write the campaign summary (one schedule: its transcript) here",
    )
    args = parser.parse_args(argv)
    params = {name: getattr(args, name) for name in options}

    last: list[dict[str, Any]] = []

    def recorded(seed: int, **kwargs: Any) -> dict[str, Any]:
        last[:] = [schedule(seed, **kwargs)]
        return last[0]

    summary = run_campaign(args.schedules, args.seed, recorded, **params)
    label = f"chaos --{flag}" if flag else "chaos"
    sizing = "".join(
        f" --{name} {value}"
        for name, value in params.items()
        if value != options[name]
    )
    print(
        f"{label}: {args.schedules} schedule(s) from seed {args.seed}: "
        + ", ".join(f"{k}={v}" for k, v in sorted(summary["totals"].items()))
    )
    for transcript in summary["failed"]:
        print(
            f"  FAILED seed={transcript['seed']}: "
            f"{'; '.join(transcript['failures'][:5])}"
        )
        print(
            f"  reproduce: python -m repro.resilience.{label} "
            f"--seed {transcript['seed']} --schedules 1{sizing}"
        )
    if args.transcript:
        payload = last[0] if args.schedules == 1 else summary
        with open(args.transcript, "w", encoding="utf-8") as f:
            json.dump(payload, f, indent=2, default=repr)
            f.write("\n")
        print(f"wrote {args.transcript}")
    if summary["failed"]:
        return 1
    print(f"{label}: all schedules green")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
