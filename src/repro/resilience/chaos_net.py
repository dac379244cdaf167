"""Network-edge chaos: the fault-tolerant driver vs. a hostile wire.

The threaded harness (:mod:`repro.resilience.chaos_mt`) attacks the
engine *under* the wire — locks, MVCC, failover — with well-behaved
in-process sessions. This module attacks the wire itself: real TCP
clients drive :class:`~repro.client.ResilientClient` through a
line-aware **killing proxy** that drops connections at the two nastiest
moments of a request's life:

- **before the request is forwarded** — the statement never executed;
  a blind retry is trivially safe and must succeed;
- **after the response is produced but before it is relayed** — the
  statement *executed* and its ack died on the wire (the executed-
  unacked window). A naive retry double-applies; the driver's
  idempotency keys plus the server's dedup cache must absorb the
  re-send.

On top of the per-message faults, each schedule injects one big event
mid-load, chosen by seed:

- **crash** — the :attr:`~repro.server.bridge.ReplicatedDatabase.commit_fault`
  hook kills the primary *between the local apply and the quorum ack*
  of a commit (the sharpest exactly-once window: the row exists on the
  crashed node, the key is poisoned in-doubt, and the client must
  neither see an ack nor cause a duplicate), followed by failover; or
- **drain** — :meth:`~repro.server.net.SQLServer.drain` gracefully
  stops the server under load, then a *new* server sharing the same
  :class:`~repro.server.manager.DedupCache` takes over on a fresh port
  (exactly-once memory must survive the restart), with the proxy
  re-pointed and the driver re-discovering the endpoint.

The oracle, checked after every schedule:

- **zero lost acked commits** — every write the driver acknowledged is
  present (transactions: every row of the block);
- **zero duplicate applies** — no logical write (acked, failed, or
  in-doubt) appears more than once, ever;
- **transaction atomicity** — a replayed block's rows appear all
  together or not at all;
- ``spgist_check`` is clean on every surviving node.

Determinism caveats are the same as chaos_mt: seeds fix each thread's
workload and the proxy's fault draws; the OS owns the interleaving, and
the invariants must hold under all of them.
"""

from __future__ import annotations

import random
import socket
import tempfile
import threading
import time
from typing import Any

from repro.client import ResilientClient, RetryPolicy
from repro.errors import (
    ReplicationError,
    ReproError,
    RetriesExceededError,
)
from repro.replication import ReplicaSet
from repro.resilience.chaos import Shared, locked_shed
from repro.resilience.check import spgist_check
from repro.server import ReplicatedDatabase, SessionManager
from repro.server.manager import DedupCache
from repro.server.net import SQLServer
from repro.settings import SETTINGS


class FlakyProxy:
    """A line-aware TCP proxy that kills connections at request boundaries.

    Relays strictly request-line/response-line (the protocol is one line
    each way), which lets it target the two ambiguity windows precisely:
    ``drop_request`` cuts both sides before the server ever sees the
    line; ``drop_response`` forwards the request, reads the server's
    answer, and cuts the client off without relaying it. The upstream
    address is mutable so a drained-and-restarted server can take over
    behind the same client-facing endpoint.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        rng: random.Random,
        shared: Shared,
        drop_request: float = 0.04,
        drop_response: float = 0.04,
    ) -> None:
        self._upstream = upstream
        self._rng = rng
        self._rng_mu = threading.Lock()
        self._shared = shared
        self.drop_request = drop_request
        self.drop_response = drop_response
        self._stop = False
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(64)
        self.address: tuple[str, int] = self._listener.getsockname()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="flaky-proxy-accept", daemon=True
        )
        self._accept_thread.start()

    def set_upstream(self, upstream: tuple[str, int]) -> None:
        """Repoint new relay connections at a restarted server's address."""
        self._upstream = upstream

    def _draw(self) -> str | None:
        with self._rng_mu:
            roll = self._rng.random()
        if roll < self.drop_request:
            return "drop_request"
        if roll < self.drop_request + self.drop_response:
            return "drop_response"
        return None

    def _accept_loop(self) -> None:
        while not self._stop:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(conn,), daemon=True
            ).start()

    def _serve(self, client: socket.socket) -> None:
        try:
            upstream = socket.create_connection(self._upstream, timeout=1.0)
        except OSError:
            client.close()
            return
        upstream.settimeout(60.0)
        client.settimeout(60.0)
        cfile = client.makefile("rwb")
        ufile = upstream.makefile("rwb")
        try:
            while not self._stop:
                req = cfile.readline()
                if not req:
                    return
                fault = self._draw()
                if fault == "drop_request":
                    # The server never sees this line: the statement
                    # definitely did not execute.
                    self._shared.bump("proxy_dropped_requests")
                    return
                ufile.write(req)
                ufile.flush()
                resp = ufile.readline()
                if not resp:
                    return
                if fault == "drop_response":
                    # The server executed and answered; the client will
                    # never know. The exactly-once window.
                    self._shared.bump("proxy_dropped_responses")
                    return
                cfile.write(resp)
                cfile.flush()
        except OSError:
            return
        finally:
            for sock in (client, upstream):
                try:
                    sock.close()
                except OSError:
                    pass

    def close(self) -> None:
        """Stop accepting and close the listener (relays die with it)."""
        self._stop = True
        try:
            self._listener.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Client workloads
# ---------------------------------------------------------------------------


def _client_worker(
    rc: ResilientClient,
    cid: int,
    statements: int,
    seed: int,
    shared: Shared,
    acked: dict[str, int],
    acked_pairs: list[str],
    attempted: set[str],
    attempted_pairs: list[str],
) -> None:
    rng = random.Random(seed * 1009 + cid)
    for j in range(statements):
        tag = f"c{cid}x{j}"
        row_id = cid * 100000 + j
        roll = rng.random()
        try:
            if roll < 0.6:
                # Autocommit write: auto-stamped with an idempotency key,
                # so however many times the wire eats the ack, it must
                # apply exactly once.
                with shared.lock:
                    attempted.add(tag)
                rc.execute(f"INSERT INTO data VALUES ('{tag}', {row_id});")
                with shared.lock:
                    acked[tag] = row_id
                shared.bump("acked_writes")
            elif roll < 0.8:
                # A two-row transaction: replayed as a whole on transient
                # failure; commit recovery resolves an eaten COMMIT ack.
                with shared.lock:
                    attempted_pairs.append(tag)
                    attempted.add(tag + "a")
                    attempted.add(tag + "b")

                def block(txn, tag=tag, row_id=row_id):
                    txn.execute(
                        f"INSERT INTO data VALUES ('{tag}a', {row_id});")
                    txn.execute(
                        f"INSERT INTO data VALUES ('{tag}b', {row_id});")
                    return tag

                rc.run_transaction(block)
                with shared.lock:
                    acked_pairs.append(tag)
                shared.bump("acked_txns")
            else:
                rc.execute("SELECT count(*) FROM data;")
                shared.bump("reads")
        except ReplicationError:
            # In-doubt: the commit may or may not survive, but it must
            # never be acked and never duplicated.
            shared.bump("indoubt")
            shared.event(client=cid, statement=j, outcome="indoubt")
        except RetriesExceededError as exc:
            shared.bump("retries_exceeded")
            shared.event(client=cid, statement=j, outcome="retries_exceeded",
                         last=type(exc.last_error).__name__
                         if exc.last_error else None)
        except ReproError as exc:
            shared.bump("other_errors")
            shared.event(client=cid, statement=j,
                         error=type(exc).__name__)


# ---------------------------------------------------------------------------
# Fault controllers
# ---------------------------------------------------------------------------


def _tick_pump(
    rs: ReplicaSet,
    holder: dict[str, Any],
    shared: Shared,
    done: threading.Event,
) -> None:
    """Keep the replica set's clock moving so failover can complete."""
    old_primary = rs.primary.name
    promoted = False
    while not done.is_set():
        mgr: SessionManager = holder["mgr"]
        with mgr.engine_mutex:
            rs.tick()
            if (
                not promoted
                and rs.primary.name != old_primary
                and not rs.primary.crashed
            ):
                promoted = True
                shared.event(action="failover", node=rs.primary.name)
                shared.bump("failovers")
        time.sleep(0.002)


def _arm_commit_fault(
    rdb: ReplicatedDatabase,
    rs: ReplicaSet,
    shared: Shared,
    after: float,
) -> None:
    """After a delay, make the *next commit* crash the primary between
    its local apply and its quorum ack — the exactly-once window."""
    time.sleep(after)

    def fault() -> None:
        rdb.commit_fault = None  # fire once
        node = rs.primary
        node.crash()
        shared.event(action="commit_fault_crash", node=node.name)
        shared.bump("commit_fault_crashes")

    rdb.commit_fault = fault


def _drain_and_restart(
    holder: dict[str, Any],
    rdb: ReplicatedDatabase,
    dedup: DedupCache,
    proxy: FlakyProxy,
    settings,
    shared: Shared,
    after: float,
) -> None:
    """Gracefully drain the server under load, then hand its endpoint to
    a fresh server sharing the same dedup cache."""
    time.sleep(after)
    old_srv: SQLServer = holder["srv"]
    stats = old_srv.drain(timeout=0.5)
    shared.event(action="drain", **stats)
    shared.bump("drains")
    new_mgr = SessionManager(rdb, settings=settings, dedup=dedup)
    new_mgr.shed_reader = lambda statement: locked_shed(new_mgr, rdb, statement)
    new_srv = SQLServer(new_mgr).start()
    holder["mgr"] = new_mgr
    holder["srv"] = new_srv
    proxy.set_upstream(new_srv.address)
    shared.event(action="restart", port=new_srv.address[1])


# ---------------------------------------------------------------------------
# Schedule driver
# ---------------------------------------------------------------------------


def run_net_schedule(
    seed: int,
    clients: int = 4,
    statements: int = 12,
    directory: str | None = None,
    scenario: str | None = None,
) -> dict[str, Any]:
    """Run one seeded network-edge schedule; returns its transcript.

    ``scenario`` is ``"crash"`` or ``"drain"`` (None picks by seed).
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="chaos-net-") as tmp:
            return run_net_schedule(
                seed, clients=clients, statements=statements,
                directory=tmp, scenario=scenario,
            )
    if scenario is None:
        scenario = "crash" if seed % 2 == 0 else "drain"

    shared = Shared()
    transcript: dict[str, Any] = {
        "seed": seed,
        "clients": clients,
        "statements": statements,
        "scenario": scenario,
    }

    settings = SETTINGS.replace(
        max_queue=64,
        shed_threshold=16,
        statement_timeout=30.0,
        lock_timeout=15.0,
        drain_timeout=0.5,
    )

    rs = ReplicaSet(directory, kind="trie", replicas=2, quorum=1, fsync=False)
    rdb = ReplicatedDatabase(rs)
    dedup = DedupCache(settings.dedup_cache_size)
    mgr = SessionManager(rdb, settings=settings, dedup=dedup)
    mgr.shed_reader = lambda statement: locked_shed(mgr, rdb, statement)
    srv = SQLServer(mgr).start()
    holder: dict[str, Any] = {"mgr": mgr, "srv": srv}

    proxy = FlakyProxy(
        srv.address, random.Random(seed * 7919 + 1), shared
    )
    rc = ResilientClient(
        discover=lambda: [proxy.address],
        policy=RetryPolicy(
            max_retries=40,
            backoff_base=0.002,
            backoff_cap=0.05,
            rng=random.Random(seed * 31 + 7),
        ),
        op_timeout=30.0,
        pool_size=3,
        connect_timeout=1.0,
        acquire_timeout=2.0,
        breaker_failure_threshold=4,
        breaker_reset_timeout=0.05,
    )

    acked: dict[str, int] = {}
    acked_pairs: list[str] = []
    attempted: set[str] = set()
    attempted_pairs: list[str] = []

    threads = [
        threading.Thread(
            target=_client_worker,
            args=(rc, cid, statements, seed, shared, acked, acked_pairs,
                  attempted, attempted_pairs),
            daemon=True,
        )
        for cid in range(clients)
    ]
    done = threading.Event()
    pump = threading.Thread(
        target=_tick_pump, args=(rs, holder, shared, done), daemon=True
    )
    mid = 0.05 + statements * clients * 0.002
    if scenario == "crash":
        controller = threading.Thread(
            target=_arm_commit_fault, args=(rdb, rs, shared, mid), daemon=True
        )
    else:
        controller = threading.Thread(
            target=_drain_and_restart,
            args=(holder, rdb, dedup, proxy, settings, shared, mid),
            daemon=True,
        )

    pump.start()
    controller.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    controller.join(timeout=30)
    done.set()
    pump.join(timeout=10)
    rdb.commit_fault = None

    _verify(rs, holder["mgr"], shared, acked, acked_pairs, attempted,
            attempted_pairs)

    rc.close()
    proxy.close()
    holder["srv"].stop()
    holder["mgr"].stop()

    transcript["stats"] = dict(sorted(shared.counts.items()))
    transcript["dedup"] = dict(dedup.stats)
    transcript["events"] = shared.events[-200:]
    transcript["failures"] = shared.failures
    transcript["ok"] = not shared.failures
    return transcript


def _verify(
    rs: ReplicaSet,
    mgr: SessionManager,
    shared: Shared,
    acked: dict[str, int],
    acked_pairs: list[str],
    attempted: set[str],
    attempted_pairs: list[str],
) -> None:
    """The exactly-once oracle: acked present once, nothing present twice,
    transactions atomic, indexes structurally clean."""
    with mgr.engine_mutex:
        for _ in range(12):
            rs.tick()
    session = mgr.connect("verify-net")
    try:
        counts: dict[str, int] = {}
        for tag in sorted(attempted):
            rows = mgr.execute(
                session, f"SELECT * FROM data WHERE key = '{tag}';"
            )
            counts[tag] = len(rows)
            if len(rows) > 1:
                shared.fail(
                    f"duplicate apply: key {tag!r} present {len(rows)} times"
                )
        for tag, row_id in sorted(acked.items()):
            if counts.get(tag, 0) == 0:
                shared.fail(f"acked commit lost: key {tag!r} (id {row_id})")
        for tag in attempted_pairs:
            a, b = counts.get(tag + "a", 0), counts.get(tag + "b", 0)
            if a != b:
                shared.fail(
                    f"non-atomic transaction {tag!r}: "
                    f"{a} copies of a, {b} of b"
                )
        for tag in acked_pairs:
            if counts.get(tag + "a", 0) != 1 or counts.get(tag + "b", 0) != 1:
                shared.fail(f"acked transaction {tag!r} not intact")
    finally:
        mgr.disconnect(session)
    with mgr.engine_mutex:
        nodes = [rs.primary] + [
            s.node for s in rs.standbys if not s.node.crashed
        ]
        for node in nodes:
            if node.index is None or node.crashed:
                continue
            report = spgist_check(node.index)
            if not report.ok:
                shared.fail(
                    f"spgist_check failed on {node.name}: {report.describe()}"
                )
