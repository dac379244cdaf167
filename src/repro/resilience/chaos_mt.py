"""Seeded multi-threaded chaos: concurrent sessions vs. the invariants.

The single-threaded harness (:mod:`repro.resilience.chaos`) drives the
replication state machine through scripted interleavings; this module
drives the *whole server stack* — :class:`~repro.server.SessionManager`
admission, :class:`~repro.server.locks.LockManager`, MVCC
first-updater-wins, VACUUM, and replication failover — with real
threads, and asserts the invariants that must hold under **any**
interleaving:

- **Zero acked-commit loss.** A statement acknowledged to a session
  (INSERT returned, COMMIT returned ``COMMIT``) survives everything the
  schedule throws at it, including a mid-schedule primary crash and
  failover on the replicated side.
- **Snapshot isolation.** Rolled-back rows are never visible to any
  reader at any time (no dirty reads), and two reads inside one
  transaction block always agree (no non-repeatable reads), regardless
  of concurrent writers and VACUUM.
- **Structural cleanliness.** ``spgist_check`` is clean on every index —
  all five opclasses locally, plus the replicated primary and standbys —
  after the schedule.

One schedule runs two sides concurrently. The *replicated* side is a
``trie`` :class:`~repro.replication.ReplicaSet` behind a
:class:`~repro.server.ReplicatedDatabase`: writer/reader/vacuum sessions
run through the manager, each on its own thread (exercising admission
control, backpressure, and standby-read shedding) while a controller thread
crashes the primary mid-schedule and ticks the set through failover. The
*local* side is a plain :class:`~repro.engine.sql.Database` carrying all
five SP-GiST opclasses, with dedicated sessions injecting guaranteed
deadlocks (barrier-synchronized opposite-order updates), lock/statement
timeouts (a holder parks on a row while a victim waits with a tiny
deadline), snapshot-isolation probes, and VACUUM traffic.

Determinism: every session draws its workload from its own
``random.Random(seed * 1009 + index)``, so the *content* of a schedule
reproduces exactly from the seed. Thread interleaving is inherently the
OS's choice — which is the point: the assertions are invariants, valid
under every interleaving, and the transcript records what actually
happened so a red run can be studied.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
from typing import Any

from repro.engine.sql import Database
from repro.errors import (
    DeadlockError,
    LockTimeoutError,
    ReproError,
    ServerOverloadedError,
    StatementTimeoutError,
    TxnError,
)
from repro.replication import ReplicaSet
from repro.resilience.chaos import Shared, locked_shed
from repro.resilience.check import spgist_check
from repro.server import ReplicatedDatabase, SessionManager
from repro.server.session import Session
from repro.settings import SETTINGS

#: The five opclasses of the paper, exercised concurrently on the local side.
LOCAL_TABLES = [
    ("mt_trie", "VARCHAR(24)", "SP_GiST_trie"),
    ("mt_suffix", "VARCHAR(24)", "SP_GiST_suffix"),
    ("mt_kdtree", "POINT", "SP_GiST_kdtree"),
    ("mt_pquad", "POINT", "SP_GiST_pquadtree"),
    ("mt_prquad", "POINT", "SP_GiST_prquadtree"),
]


def _key_literal(type_name: str, n: int) -> str:
    """A unique, in-bounds key literal for row ``n`` of a table."""
    if type_name.startswith("VARCHAR"):
        return f"'k{n:06d}'"
    # Points stay inside the quadtree world box (0,0)-(100,100) and are
    # unique for n < 8100, far above any schedule's row count.
    return f"'({n % 90},{n // 90 % 90})'"


def _with_backoff(fn, shared: Shared, rng: random.Random, attempts: int = 40):
    """Run ``fn`` retrying ServerOverloadedError with jittered backoff.

    This is the client half of admission control: rejected work backs
    off and retries instead of queueing inside the server.
    """
    for _ in range(attempts):
        try:
            return fn()
        except ServerOverloadedError:
            shared.bump("overload_backoffs")
            time.sleep(rng.uniform(0.001, 0.01))
    raise ServerOverloadedError("backoff budget exhausted")


# ---------------------------------------------------------------------------
# Replicated side
# ---------------------------------------------------------------------------


def _replicated_writer(
    mgr: SessionManager,
    session: Session,
    sid: int,
    statements: int,
    seed: int,
    shared: Shared,
    acked: dict[str, int],
    aborted: set[str],
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for j in range(statements):
        key = f"w{sid}x{j}"
        row_id = sid * 100000 + j
        try:
            if rng.random() < 0.2:
                # An explicitly rolled-back transaction: its row must
                # never become visible anywhere (dirty-read oracle).
                abort_key = f"ab{sid}x{j}"
                with shared.lock:
                    aborted.add(abort_key)
                _with_backoff(
                    lambda: mgr.execute(session, "BEGIN;"), shared, rng
                )
                mgr.execute(
                    session,
                    f"INSERT INTO data VALUES ('{abort_key}', {row_id});",
                )
                mgr.execute(session, "ROLLBACK;")
                shared.bump("replicated_aborted")
            else:
                _with_backoff(
                    lambda: mgr.execute(
                        session, f"INSERT INTO data VALUES ('{key}', {row_id});"
                    ),
                    shared,
                    rng,
                )
                # Only now — after the statement returned, meaning the
                # commit was quorum-acknowledged — is the row "acked".
                with shared.lock:
                    acked[key] = row_id
                shared.bump("replicated_acked")
        except ReproError as exc:
            # Crash window / failover / quorum loss: the write is in
            # doubt (may or may not survive) — never counted as acked.
            shared.bump("replicated_indoubt")
            shared.event(side="replicated", session=session.name,
                         error=type(exc).__name__, statement=j)
            # A failed block leaves the session aborted; clear it.
            try:
                mgr.execute(session, "ROLLBACK;")
            except ReproError:
                pass


def _replicated_reader(
    mgr: SessionManager,
    session: Session,
    sid: int,
    statements: int,
    seed: int,
    shared: Shared,
    acked: dict[str, int],
    aborted: set[str],
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for _ in range(statements):
        with shared.lock:
            abort_pool = sorted(aborted)
        try:
            if abort_pool and rng.random() < 0.5:
                # Dirty-read probe: a rolled-back key must never surface.
                key = rng.choice(abort_pool)
                rows = _with_backoff(
                    lambda: mgr.execute(
                        session, f"SELECT * FROM data WHERE key = '{key}';"
                    ),
                    shared,
                    rng,
                )
                if rows:
                    shared.fail(
                        f"dirty read: rolled-back key {key!r} visible: {rows}"
                    )
                shared.bump("dirty_read_probes")
            else:
                # Repeatable-read probe: two reads in one block agree.
                _with_backoff(lambda: mgr.execute(session, "BEGIN;"), shared, rng)
                first = mgr.execute(session, "SELECT count(*) FROM data;")
                time.sleep(rng.uniform(0.0, 0.005))
                second = mgr.execute(session, "SELECT count(*) FROM data;")
                mgr.execute(session, "COMMIT;")
                if first != second:
                    shared.fail(
                        f"non-repeatable read on data: {first} != {second}"
                    )
                shared.bump("si_probes")
        except ReproError as exc:
            shared.bump("replicated_read_errors")
            shared.event(side="replicated", session=session.name,
                         error=type(exc).__name__)
            try:
                mgr.execute(session, "ROLLBACK;")
            except ReproError:
                pass
        time.sleep(rng.uniform(0.0, 0.003))


def _replicated_vacuumer(
    mgr: SessionManager, session: Session, sid: int, statements: int,
    seed: int, shared: Shared,
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for _ in range(max(2, statements // 4)):
        time.sleep(rng.uniform(0.005, 0.02))
        try:
            _with_backoff(
                lambda: mgr.execute(session, "VACUUM data;"), shared, rng
            )
            shared.bump("vacuums")
        except ReproError as exc:
            shared.bump("vacuum_errors")
            shared.event(side="replicated", session=session.name,
                         error=type(exc).__name__)


def _failover_controller(
    rs: ReplicaSet,
    mgr: SessionManager,
    shared: Shared,
    done: threading.Event,
    crash_after: float,
) -> None:
    """Crash the primary mid-schedule, tick through failover, keep pumping."""
    time.sleep(crash_after)
    with mgr.engine_mutex:
        old = rs.primary.name
        rs.primary.crash()
    shared.event(side="replicated", action="crash", node=old)
    promoted = False
    while not done.is_set():
        with mgr.engine_mutex:
            rs.tick()
            if not promoted and rs.primary.name != old and not rs.primary.crashed:
                promoted = True
                shared.event(side="replicated", action="failover",
                             node=rs.primary.name)
                shared.bump("failovers")
        time.sleep(0.002)


# ---------------------------------------------------------------------------
# Local side (five opclasses)
# ---------------------------------------------------------------------------


def _local_writer(
    mgr: SessionManager,
    session: Session,
    sid: int,
    statements: int,
    seed: int,
    shared: Shared,
    tracks: dict[str, dict[str, set[int]]],
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for j in range(statements):
        table, type_name, _ = LOCAL_TABLES[rng.randrange(len(LOCAL_TABLES))]
        track = tracks[table]
        row_id = sid * 100000 + j
        key = _key_literal(type_name, row_id % 8000)
        try:
            roll = rng.random()
            if roll < 0.15:
                # Rolled-back insert: must never be visible (disjoint ids).
                abort_id = sid * 100000 + 50000 + j
                with shared.lock:
                    track["aborted"].add(abort_id)
                _with_backoff(lambda: mgr.execute(session, "BEGIN;"), shared, rng)
                mgr.execute(
                    session,
                    f"INSERT INTO {table} VALUES "
                    f"({_key_literal(type_name, abort_id % 8000)}, {abort_id});",
                )
                mgr.execute(session, "ROLLBACK;")
                shared.bump("local_aborted")
            elif roll < 0.3:
                # Delete one of our own acked rows.
                with shared.lock:
                    mine = [
                        i for i in track["acked"]
                        if i // 100000 == sid and i not in track["deleted"]
                    ]
                if mine:
                    victim = rng.choice(mine)
                    _with_backoff(
                        lambda: mgr.execute(
                            session, f"DELETE FROM {table} WHERE id = {victim};"
                        ),
                        shared,
                        rng,
                    )
                    with shared.lock:
                        track["deleted"].add(victim)
                    shared.bump("local_deleted")
            else:
                _with_backoff(
                    lambda: mgr.execute(
                        session,
                        f"INSERT INTO {table} VALUES ({key}, {row_id});",
                    ),
                    shared,
                    rng,
                )
                with shared.lock:
                    track["acked"].add(row_id)
                shared.bump("local_acked")
        except TxnError as exc:
            shared.bump("local_txn_errors")
            shared.event(side="local", session=session.name,
                         error=type(exc).__name__)
            try:
                mgr.execute(session, "ROLLBACK;")
            except ReproError:
                pass
        except ReproError as exc:
            shared.bump("local_errors")
            shared.event(side="local", session=session.name,
                         error=type(exc).__name__)


def _local_reader(
    mgr: SessionManager,
    session: Session,
    sid: int,
    statements: int,
    seed: int,
    shared: Shared,
    tracks: dict[str, dict[str, set[int]]],
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for _ in range(statements):
        table, _, _ = LOCAL_TABLES[rng.randrange(len(LOCAL_TABLES))]
        track = tracks[table]
        try:
            if rng.random() < 0.5:
                rows = _with_backoff(
                    lambda: mgr.execute(session, f"SELECT * FROM {table};"),
                    shared,
                    rng,
                )
                with shared.lock:
                    dirty = {r[1] for r in rows} & track["aborted"]
                if dirty:
                    shared.fail(
                        f"dirty read on {table}: rolled-back ids {sorted(dirty)}"
                    )
                shared.bump("dirty_read_probes")
            else:
                _with_backoff(lambda: mgr.execute(session, "BEGIN;"), shared, rng)
                first = {r[1] for r in mgr.execute(session, f"SELECT * FROM {table};")}
                time.sleep(rng.uniform(0.0, 0.004))
                second = {r[1] for r in mgr.execute(session, f"SELECT * FROM {table};")}
                mgr.execute(session, "COMMIT;")
                if first != second:
                    shared.fail(
                        f"non-repeatable read on {table}: "
                        f"{sorted(first ^ second)} changed inside a block"
                    )
                shared.bump("si_probes")
        except ReproError as exc:
            shared.bump("local_read_errors")
            shared.event(side="local", session=session.name,
                         error=type(exc).__name__)
            try:
                mgr.execute(session, "ROLLBACK;")
            except ReproError:
                pass


def _local_vacuumer(
    mgr: SessionManager, session: Session, sid: int, statements: int,
    seed: int, shared: Shared,
) -> None:
    rng = random.Random(seed * 1009 + sid)
    for _ in range(max(2, statements // 4)):
        table, _, _ = LOCAL_TABLES[rng.randrange(len(LOCAL_TABLES))]
        time.sleep(rng.uniform(0.005, 0.02))
        try:
            _with_backoff(
                lambda: mgr.execute(session, f"VACUUM {table};"), shared, rng
            )
            shared.bump("vacuums")
        except ReproError as exc:
            shared.bump("vacuum_errors")
            shared.event(side="local", session=session.name,
                         error=type(exc).__name__)


def _deadlock_injector(
    session: Session,
    first: str,
    second: str,
    barrier: threading.Barrier,
    rounds: int,
    shared: Shared,
) -> None:
    """Half of a guaranteed deadlock: opposite-order row updates.

    Both injectors BEGIN, synchronize, each update their *first* row,
    synchronize again, then each reach for the other's row — a 2-cycle
    the wait-for graph must detect, aborting exactly the younger victim
    with a retryable DeadlockError.
    """
    for i in range(rounds):
        try:
            barrier.wait(timeout=10)
        except threading.BrokenBarrierError:
            pass
        try:
            session.execute("BEGIN;")
            session.execute(
                f"UPDATE mt_trie SET key = 'd{i}a' WHERE id = {first};"
            )
            try:
                barrier.wait(timeout=10)
            except threading.BrokenBarrierError:
                pass
            session.execute(
                f"UPDATE mt_trie SET key = 'd{i}b' WHERE id = {second};"
            )
            session.execute("COMMIT;")
            shared.bump("deadlock_survivors")
        except DeadlockError:
            shared.bump("deadlocks")
            session.execute("ROLLBACK;")
        except TxnError as exc:
            shared.bump("deadlock_other_errors")
            shared.event(side="local", session=session.name,
                         error=type(exc).__name__)
            try:
                session.execute("ROLLBACK;")
            except ReproError:
                pass


def _timeout_injector(
    holder: Session,
    victim: Session,
    rounds: int,
    shared: Shared,
) -> None:
    """Deterministic lock-wait timeouts: a holder parks on a row while a
    victim waits with a tiny lock (then statement) deadline."""
    for i in range(rounds):
        try:
            holder.execute("BEGIN;")
            holder.execute(f"UPDATE mt_suffix SET key = 'h{i}' WHERE id = -10;")
            try:
                victim.execute(
                    "UPDATE mt_suffix SET key = 'v' WHERE id = -10;",
                    lock_timeout=0.05,
                )
                shared.fail("lock_timeout injection did not time out")
            except LockTimeoutError:
                shared.bump("lock_timeouts")
            except DeadlockError:
                shared.bump("deadlocks")
            try:
                victim.execute(
                    "UPDATE mt_suffix SET key = 'v' WHERE id = -10;",
                    statement_timeout=0.05,
                )
                shared.fail("statement_timeout injection did not time out")
            except StatementTimeoutError:
                shared.bump("statement_timeouts")
            except DeadlockError:
                shared.bump("deadlocks")
            holder.execute("COMMIT;")
        except TxnError as exc:
            shared.bump("timeout_injector_errors")
            shared.event(side="local", session=holder.name,
                         error=type(exc).__name__)
            for s in (holder, victim):
                try:
                    s.execute("ROLLBACK;")
                except ReproError:
                    pass


# ---------------------------------------------------------------------------
# Schedule driver
# ---------------------------------------------------------------------------


def run_threaded_schedule(
    seed: int,
    sessions: int = 16,
    statements: int = 10,
    directory: str | None = None,
    failover: bool = True,
) -> dict[str, Any]:
    """Run one seeded threaded schedule; returns its transcript.

    ``sessions`` counts every concurrent session across both sides
    (replicated writers/readers/vacuum + local writers/readers/vacuum +
    the four dedicated deadlock/timeout injectors).
    """
    if directory is None:
        with tempfile.TemporaryDirectory(prefix="chaos-mt-") as tmp:
            return run_threaded_schedule(
                seed, sessions=sessions, statements=statements,
                directory=tmp, failover=failover,
            )

    shared = Shared()
    transcript: dict[str, Any] = {
        "seed": seed,
        "sessions": sessions,
        "statements": statements,
        "failover": failover,
    }

    settings = SETTINGS.replace(
        max_queue=96,
        shed_threshold=24,
        statement_timeout=30.0,
        lock_timeout=15.0,
    )

    # -- replicated side setup ------------------------------------------------
    rs = ReplicaSet(directory, kind="trie", replicas=2, quorum=1, fsync=False)
    rdb = ReplicatedDatabase(rs)
    rmgr = SessionManager(rdb, settings=settings)
    # Standby reads race the controller's ticks, so the shed path takes
    # the same engine mutex statements do.
    rmgr.shed_reader = lambda statement: locked_shed(rmgr, rdb, statement)

    # -- local side setup ------------------------------------------------------
    ldb = Database()
    lmgr = SessionManager(ldb, settings=settings)
    boot = lmgr.connect("bootstrap")
    for table, type_name, opclass in LOCAL_TABLES:
        lmgr.execute(boot, f"CREATE TABLE {table} (key {type_name}, id INT);")
        lmgr.execute(
            boot,
            f"CREATE INDEX {table}_idx ON {table} USING SP_GiST (key {opclass});",
        )
        for rid in (-1, -2, -10):
            lmgr.execute(
                boot,
                f"INSERT INTO {table} VALUES "
                f"({_key_literal(type_name, 7900 - rid)}, {rid});",
            )
    lmgr.disconnect(boot)

    # -- session allocation ----------------------------------------------------
    injectors = 4
    workers = max(6, sessions - injectors)
    n_repl = max(3, workers * 2 // 5)
    n_local = max(3, workers - n_repl)
    acked: dict[str, int] = {}
    rep_aborted: set[str] = set()
    tracks = {
        t: {"acked": set(), "deleted": set(), "aborted": set()}
        for t, _, _ in LOCAL_TABLES
    }

    threads: list[threading.Thread] = []
    sid = 0

    def spawn(target, *args) -> None:
        thread = threading.Thread(target=target, args=args, daemon=True)
        threads.append(thread)

    for i in range(n_repl):
        session = rmgr.connect(f"repl-{i}")
        sid += 1
        role = i % 4
        if role in (0, 1):
            spawn(_replicated_writer, rmgr, session, sid, statements, seed,
                  shared, acked, rep_aborted)
        elif role == 2:
            spawn(_replicated_reader, rmgr, session, sid, statements, seed,
                  shared, acked, rep_aborted)
        else:
            spawn(_replicated_vacuumer, rmgr, session, sid, statements, seed,
                  shared)

    for i in range(n_local):
        session = lmgr.connect(f"local-{i}")
        sid += 1
        role = i % 4
        if role in (0, 1):
            spawn(_local_writer, lmgr, session, sid, statements, seed, shared,
                  tracks)
        elif role == 2:
            spawn(_local_reader, lmgr, session, sid, statements, seed, shared,
                  tracks)
        else:
            spawn(_local_vacuumer, lmgr, session, sid, statements, seed, shared)

    barrier = threading.Barrier(2)
    rounds = max(3, statements // 3)
    dl_a = lmgr.connect("deadlock-a")
    dl_b = lmgr.connect("deadlock-b")
    spawn(_deadlock_injector, dl_a, -1, -2, barrier, rounds, shared)
    spawn(_deadlock_injector, dl_b, -2, -1, barrier, rounds, shared)
    to_holder = lmgr.connect("timeout-holder")
    to_victim = lmgr.connect("timeout-victim")
    spawn(_timeout_injector, to_holder, to_victim, max(2, rounds // 2), shared)

    done = threading.Event()
    controller = None
    if failover:
        controller = threading.Thread(
            target=_failover_controller,
            args=(rs, rmgr, shared, done, 0.05 + statements * 0.004),
            daemon=True,
        )
        controller.start()

    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    done.set()
    if controller is not None:
        controller.join(timeout=10)

    # -- verification ----------------------------------------------------------
    _verify_replicated(rs, rmgr, acked, rep_aborted, shared)
    _verify_local(ldb, lmgr, tracks, shared)
    if failover and shared.counts.get("failovers", 0) < 1:
        shared.fail("schedule requested a failover but none occurred")
    lock_stats = {"replicated": rmgr.locks.stats(), "local": lmgr.locks.stats()}
    for side, stats in lock_stats.items():
        if stats["held"] or stats["waiters"]:
            shared.fail(
                f"{side} lock manager not quiescent after schedule: {stats}"
            )

    rmgr.stop()
    lmgr.stop()

    transcript["stats"] = dict(sorted(shared.counts.items()))
    transcript["lock_stats"] = lock_stats
    transcript["events"] = shared.events[-200:]
    transcript["failures"] = shared.failures
    transcript["ok"] = not shared.failures
    return transcript


def _verify_replicated(
    rs: ReplicaSet,
    mgr: SessionManager,
    acked: dict[str, int],
    aborted: set[str],
    shared: Shared,
) -> None:
    """Post-schedule: every acked row present, no aborted row anywhere,
    spgist_check clean on the whole set."""
    with mgr.engine_mutex:
        for _ in range(12):
            rs.tick()
    session = mgr.connect("verify")
    try:
        for key, row_id in sorted(acked.items()):
            rows = mgr.execute(session, f"SELECT * FROM data WHERE key = '{key}';")
            if [r for r in rows if r[1] == row_id] == []:
                shared.fail(f"acked commit lost: key {key!r} (id {row_id})")
        for key in sorted(aborted):
            rows = mgr.execute(session, f"SELECT * FROM data WHERE key = '{key}';")
            if rows:
                shared.fail(f"rolled-back key {key!r} visible after schedule")
    finally:
        mgr.disconnect(session)
    with mgr.engine_mutex:
        nodes = [rs.primary] + [
            s.node for s in rs.standbys if not s.node.crashed
        ]
        for node in nodes:
            if node.index is None:
                continue
            report = spgist_check(node.index)
            if not report.ok:
                shared.fail(
                    f"spgist_check failed on {node.name}: {report.describe()}"
                )


def _verify_local(
    db: Database,
    mgr: SessionManager,
    tracks: dict[str, dict[str, set[int]]],
    shared: Shared,
) -> None:
    session = mgr.connect("verify-local")
    try:
        for table, _, _ in LOCAL_TABLES:
            rows = mgr.execute(session, f"SELECT * FROM {table};")
            visible = {r[1] for r in rows}
            track = tracks[table]
            missing = (track["acked"] - track["deleted"]) - visible
            if missing:
                shared.fail(
                    f"acked commits lost on {table}: ids {sorted(missing)[:10]}"
                )
            ghosts = visible & track["aborted"]
            if ghosts:
                shared.fail(
                    f"rolled-back rows visible on {table}: {sorted(ghosts)[:10]}"
                )
            report = spgist_check(
                db.table(table).indexes[f"{table}_idx"].structure
            )
            if not report.ok:
                shared.fail(
                    f"spgist_check failed on {table}: {report.describe()}"
                )
    finally:
        mgr.disconnect(session)
