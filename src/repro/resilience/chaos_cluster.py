"""Cluster chaos: shard kills, coordinator crashes, and flaky channels.

The single-replica-set harnesses attack one shard's internals; this one
attacks the *distributed* layer above them. Each seeded schedule drives
a :class:`~repro.cluster.Cluster` (space- or hash-partitioned by seed)
through an interleaving of:

- **multi-shard 2PC writes** and single-shard writes (uniquely tagged
  rows, so presence is decidable per transaction);
- **routed reads** — single-shard point lookups, scatter window/prefix
  queries, and k-merged NN queries, each checked against a model;
- **primary kills** (per-shard failover, driven by ticks), **whole-shard
  kills** (every node of a shard at once — the scale-out failure mode
  the ISSUE names) and later restarts with in-doubt resolution;
- **coordinator crashes** at the three instants of the 2PC protocol
  (before any prepare, after all prepares, mid-commit-fan-out), each
  followed by a *new* coordinator recovering from the same log — the
  schedule classifies the transaction by the recovery verdict, exactly
  as a client reconnecting after a coordinator crash would;
- **flaky replication channels** (seeded drop rates) under all of it.

The oracle, checked after every schedule (with all shards restarted,
recovery run to completion, and replication caught up):

- **zero lost acked commits** — every acknowledged transaction's rows
  (single- and multi-shard) are present, each exactly once;
- **zero dirty cross-shard reads** — every transaction, including
  aborted and in-doubt ones, is all-or-nothing across shards once
  recovery has run; aborted 2PC transactions left no row anywhere;
- **routing correctness** — point lookups find their rows on the shard
  the map names; a scatter query equals the model filter; NN distances
  are non-decreasing;
- **``spgist_check`` is clean** on every live node of every shard.

Schedules are fully deterministic: the cluster is driven synchronously,
so one seed is one interleaving, replayable with ``--seed``.
"""

from __future__ import annotations

import random
import tempfile
from typing import Any

from repro.cluster import Cluster, CoordinatorCrash, TwoPhaseCoordinator, TwoPhaseError
from repro.errors import PrimaryUnavailableError, ReplicationError, ReproError
from repro.geometry import Box, euclidean
from repro.geometry.point import Point
from repro.resilience.check import spgist_check
from repro.workloads import random_points, random_words


def _crash_once(events: list, label: str):
    """A chaos hook that raises CoordinatorCrash exactly once."""
    armed = {"on": True}

    def hook() -> None:
        if armed["on"]:
            armed["on"] = False
            events.append({"action": "coordinator_crash", "at": label})
            raise CoordinatorCrash(label)

    return hook


class _Schedule:
    """One seeded run: workload, faults, model, and the final oracle."""

    def __init__(self, seed: int, ops: int, shards: int) -> None:
        self.seed = seed
        self.ops = ops
        self.rng = random.Random(seed * 6151 + 17)
        self.kind = "kdtree" if seed % 2 == 0 else "trie"
        self.shards = shards
        self.events: list[dict[str, Any]] = []
        self.failures: list[str] = []
        self.counts: dict[str, int] = {}
        #: tag -> rows, for every transaction classified as committed.
        self.acked: dict[str, list[tuple]] = {}
        #: tag -> rows, for transactions that must have left nothing.
        self.aborted: dict[str, list[tuple]] = {}
        #: tag -> rows, verdict unknown (quorum lost mid-commit): must be
        #: all-or-nothing but may go either way.
        self.indoubt: dict[str, list[tuple]] = {}
        self._tag = 0
        self._id = 0
        if self.kind == "kdtree":
            self._points = random_points(4000, seed=seed * 13 + 1)
        else:
            self._words = random_words(4000, seed=seed * 13 + 1)

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fail(self, message: str) -> None:
        self.failures.append(message)

    # -- workload material -----------------------------------------------------

    def _next_rows(self, n: int) -> tuple[str, list[tuple]]:
        """``n`` fresh uniquely-tagged rows (unique keys AND unique ids)."""
        self._tag += 1
        tag = f"t{self.seed}x{self._tag}"
        rows = []
        for _ in range(n):
            self._id += 1
            if self.kind == "kdtree":
                key = self._points[self._id % len(self._points)]
            else:
                key = f"{self._words[self._id % len(self._words)]}{self._id:05d}"
            rows.append((key, self._id))
        return tag, rows

    # -- actions ---------------------------------------------------------------

    def act_write(self, cluster: Cluster, multi: bool) -> None:
        tag, rows = self._next_rows(self.rng.randint(4, 8) if multi else 2)
        try:
            cluster.insert(rows)
        except CoordinatorCrash:
            raise  # handled by act_coordinator_crash
        except (TwoPhaseError, PrimaryUnavailableError):
            # A NO vote or a dead shard: cleanly aborted, nothing landed
            # (prepares never apply rows; presumed abort cleans journals).
            self.aborted[tag] = rows
            self.bump("writes_aborted")
            return
        except ReplicationError:
            # Quorum unreachable after local apply: the in-doubt window.
            self.indoubt[tag] = rows
            self.bump("writes_indoubt")
            return
        self.acked[tag] = rows
        self.bump("writes_acked_multi" if multi else "writes_acked_single")

    def act_coordinator_crash(self, cluster: Cluster) -> None:
        """A 2PC write with the coordinator dying at a seeded instant."""
        point = self.rng.choice(
            ["before_prepare", "after_prepares", "mid_commit_fanout"]
        )
        setattr(
            cluster.coordinator, f"crash_{point}",
            _crash_once(self.events, point),
        )
        tag, rows = self._next_rows(self.rng.randint(4, 8))
        crashed = False
        try:
            cluster.insert(rows)
        except CoordinatorCrash:
            crashed = True
        except (TwoPhaseError, PrimaryUnavailableError):
            self.aborted[tag] = rows
            self.bump("writes_aborted")
        finally:
            setattr(cluster.coordinator, f"crash_{point}", None)
        if not crashed:
            if tag not in self.aborted:
                self.acked[tag] = rows  # hook never fired (single-shard route)
            return
        # Coordinator restart: a NEW coordinator over the SAME log decides.
        cluster.coordinator = TwoPhaseCoordinator(
            cluster.coordinator.log, cluster.shards
        )
        outcomes = cluster.recover()
        gid = max(outcomes) if outcomes else None
        verdict = outcomes.get(gid, "aborted") if gid else "aborted"
        if verdict == "committed":
            self.acked[tag] = rows
            self.bump("coordinator_crash_committed")
        else:
            self.aborted[tag] = rows
            self.bump("coordinator_crash_aborted")
        self.events.append(
            {"action": "coordinator_recovery", "at": point, "verdict": verdict}
        )

    def act_kill_primary(self, cluster: Cluster) -> None:
        sid = self.rng.randrange(cluster.shard_map.num_shards)
        rs = cluster.shards[sid].rs
        if rs.primary.crashed or not any(
            not e.node.crashed for e in rs.standbys
        ):
            return
        deposed = rs.primary
        deposed.crash(seed=self.seed)
        self.events.append({"action": "kill_primary", "shard": sid})
        self.bump("primary_kills")
        for _ in range(rs.heartbeat_timeout + 1):
            rs.tick()  # drive the failover to completion
        if rs.primary is not deposed and not rs.primary.crashed:
            # The Patroni move: the deposed primary rejoins as a standby
            # (full resync off the new timeline) so the shard returns to
            # full replica strength instead of bleeding members.
            rs.rejoin(deposed)

    def act_kill_shard(self, cluster: Cluster, dead: set[int]) -> None:
        live = [s for s in cluster.shards if s not in dead]
        if len(live) <= 1:
            return  # keep at least one shard serving
        sid = self.rng.choice(live)
        cluster.kill_shard(sid, seed=self.seed)
        dead.add(sid)
        self.events.append({"action": "kill_shard", "shard": sid})
        self.bump("shard_kills")

    def act_restart_shard(self, cluster: Cluster, dead: set[int]) -> None:
        if not dead:
            return
        sid = self.rng.choice(sorted(dead))
        cluster.restart_shard(sid)
        dead.discard(sid)
        self.events.append({"action": "restart_shard", "shard": sid})
        self.bump("shard_restarts")

    def act_read(self, cluster: Cluster, dead: set[int]) -> None:
        """A routed read checked against the model, skipping dead shards."""
        if not self.acked:
            return
        tag = self.rng.choice(sorted(self.acked))
        row = self.rng.choice(self.acked[tag])
        sid = cluster.shard_map.shard_of_key(row[0])
        if sid in dead or cluster.shards[sid].rs.primary.crashed:
            return
        op = "@" if self.kind == "kdtree" else "="
        try:
            got = cluster.search(op, row[0])
        except ReproError as exc:
            self.fail(f"routed point read raised {type(exc).__name__}: {exc}")
            return
        self.bump("point_reads")
        if row not in got:
            self.fail(
                f"lost acked row {row!r} (txn {tag}): point lookup on "
                f"shard {sid} missed it"
            )

    def act_nn_read(self, cluster: Cluster, dead: set[int]) -> None:
        if dead or any(
            s.rs.primary.crashed for s in cluster.shards.values()
        ):
            return  # NN merges every shard; needs all primaries up
        if self.kind == "kdtree":
            query = Point(self.rng.uniform(0, 100), self.rng.uniform(0, 100))
        else:
            query = "probe"
        try:
            merged = list(cluster.router.nn_merged(query))
        except ReproError as exc:
            self.fail(f"nn read raised {type(exc).__name__}: {exc}")
            return
        self.bump("nn_reads")
        distances = [d for d, _t, _s, _r in merged]
        if distances != sorted(distances):
            self.fail("k-merged NN stream is not distance-ordered")

    def act_scatter_read(self, cluster: Cluster, dead: set[int]) -> None:
        if dead or any(
            s.rs.primary.crashed for s in cluster.shards.values()
        ):
            return
        if self.kind == "kdtree":
            x = self.rng.uniform(0, 60)
            y = self.rng.uniform(0, 60)
            operand: Any = Box(x, y, x + 35, y + 35)
            op = "^"

            def match(key: Any) -> bool:
                return operand.contains_point(key)
        else:
            operand = self.rng.choice("abcdefghij")
            op = "#="

            def match(key: Any) -> bool:
                return str(key).startswith(operand)

        try:
            got = cluster.search(op, operand)
        except ReproError as exc:
            self.fail(f"scatter read raised {type(exc).__name__}: {exc}")
            return
        self.bump("scatter_reads")
        missing = [
            row
            for rows in self.acked.values()
            for row in rows
            if match(row[0]) and row not in got
        ]
        if missing:
            self.fail(
                f"scatter {op} {operand!r} missed {len(missing)} acked "
                f"row(s), e.g. {missing[0]!r}"
            )

    def act_split(self, cluster: Cluster, dead: set[int]) -> None:
        candidates = [
            s for s in cluster.shards
            if s not in dead and not cluster.shards[s].rs.primary.crashed
            and cluster.shards[s].table is not None
            and len(cluster.shards[s].table) >= 8
        ]
        if not candidates:
            return
        sid = self.rng.choice(candidates)
        try:
            target = cluster.split_shard(sid)
        except ReplicationError:
            self.bump("splits_unavailable")  # quorum lost mid-split: allowed
            return
        except ReproError as exc:
            self.fail(f"split of shard {sid} raised {type(exc).__name__}: {exc}")
            return
        self.events.append({"action": "split", "source": sid, "target": target})
        self.bump("splits")

    # -- the run ---------------------------------------------------------------

    def run(self, directory: str) -> dict[str, Any]:
        from repro.resilience.faults import ChannelFaultPolicy

        flaky = [
            ChannelFaultPolicy(seed=self.seed * 31 + 5, drop_rate=0.15),
        ]
        cluster = Cluster(
            directory,
            kind=self.kind,
            shards=self.shards,
            replicas=2,
            quorum=1,
            heartbeat_timeout=2,
            # fsync matters here, unlike the single-set harnesses: a WHOLE
            # shard dying leaves no live standby to recover acked commits
            # from, so the only way "zero lost acked commits" can hold is
            # the primary's WAL being durable at ack time.
            fsync=True,
            pool_pages=64,
            split_threshold=10_000,  # splits happen via act_split, not fill
            channel_policies=flaky,
        )
        dead: set[int] = set()
        try:
            for step in range(self.ops):
                roll = self.rng.random()
                if roll < 0.30:
                    self.act_write(cluster, multi=True)
                elif roll < 0.45:
                    self.act_write(cluster, multi=False)
                elif roll < 0.53:
                    self.act_coordinator_crash(cluster)
                elif roll < 0.63:
                    self.act_read(cluster, dead)
                elif roll < 0.71:
                    self.act_scatter_read(cluster, dead)
                elif roll < 0.76:
                    self.act_nn_read(cluster, dead)
                elif roll < 0.83:
                    self.act_kill_primary(cluster)
                elif roll < 0.89:
                    self.act_kill_shard(cluster, dead)
                elif roll < 0.96:
                    self.act_restart_shard(cluster, dead)
                else:
                    self.act_split(cluster, dead)
                cluster.tick()
            self._final_oracle(cluster, dead)
        finally:
            cluster.close()
        return {
            "seed": self.seed,
            "kind": self.kind,
            "ops": self.ops,
            "stats": dict(sorted(self.counts.items())),
            "events": self.events[-100:],
            "failures": self.failures,
            "ok": not self.failures,
        }

    def _final_oracle(self, cluster: Cluster, dead: set[int]) -> None:
        """Restart everything, finish recovery, then check every invariant."""
        for sid in sorted(dead):
            cluster.restart_shard(sid)
        dead.clear()
        for sid in sorted(cluster.shards):
            rs = cluster.shards[sid].rs
            if rs.primary.crashed:
                for _ in range(rs.heartbeat_timeout + 1):
                    rs.tick()
            for entry in list(rs.standbys):
                if entry.node.crashed:
                    rs.rejoin(entry.node)
        cluster.recover()
        for sid in sorted(cluster.shards):
            cluster.resolve_in_doubt(sid)
        if not cluster.catch_up():
            self.fail("replication did not converge after the schedule")

        rows = cluster.all_rows()
        seen = {}
        for row in rows:
            seen[row] = seen.get(row, 0) + 1
        duplicates = {r: n for r, n in seen.items() if n > 1}
        if duplicates:
            self.fail(f"{len(duplicates)} row(s) applied more than once")

        for tag, txn_rows in sorted(self.acked.items()):
            missing = [r for r in txn_rows if r not in seen]
            if missing:
                self.fail(
                    f"acked txn {tag}: {len(missing)}/{len(txn_rows)} "
                    f"row(s) lost, e.g. {missing[0]!r}"
                )
        for tag, txn_rows in sorted(self.aborted.items()):
            present = [r for r in txn_rows if r in seen]
            if present:
                self.fail(
                    f"aborted txn {tag}: {len(present)} row(s) leaked "
                    f"(dirty cross-shard state), e.g. {present[0]!r}"
                )
        for tag, txn_rows in sorted(self.indoubt.items()):
            present = [r for r in txn_rows if r in seen]
            if present and len(present) != len(txn_rows):
                self.fail(
                    f"in-doubt txn {tag} is torn: {len(present)}/"
                    f"{len(txn_rows)} rows present"
                )

        # Routing correctness on the settled state: every row reachable
        # through the router, on the shard the map names.
        probe = sorted(self.acked.items())[:: max(1, len(self.acked) // 8)]
        op = "@" if self.kind == "kdtree" else "="
        for tag, txn_rows in probe:
            row = txn_rows[0]
            if row not in cluster.search(op, row[0]):
                self.fail(f"settled point lookup missed acked row {row!r}")

        for name, report in sorted(cluster.check().items()):
            if not report.ok:
                self.fail(f"spgist_check failed on {name}: {report.describe()}")


def run_cluster_schedule(
    seed: int, ops: int = 40, shards: int = 3, directory: str | None = None
) -> dict[str, Any]:
    """Run one seeded cluster-chaos schedule; returns its transcript."""
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="chaos-cluster-") as tmp:
            return run_cluster_schedule(seed, ops=ops, shards=shards, directory=tmp)
    return _Schedule(seed, ops, shards).run(directory)
