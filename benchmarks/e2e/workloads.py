"""The four workloads: seeded schedules, the systems they drive, the oracle.

Each workload owns one system under test, a Python model of the data it
loaded, and a schedule; the program only ever sees statements. What is
stored is the same on every run: the preloaded rows, the rows the schedule
inserts and the order of statement classes all come from ``DATA_SEED``.
``--seed`` draws what is *asked*: which keys are looked up, which prefixes,
patterns, windows and neighbourhoods are searched. Two seeds therefore leave
byte-identical tables behind, and ``stored_bytes_per_user_byte`` and every
write-side counter repeat exactly whatever the seed.

A workload is driven in *rounds* made of whole *blocks*. A block is a fixed
number of operations holding every statement class in its exact share — the
mix is dealt, not sampled, so no two runs differ in how many scans or
commits they make (sampling the mix alone moved the cluster workload's
throughput by 15 % from seed to seed).

How many blocks a round runs depends on whether the workload writes:

Every round's size comes from ``--seconds`` and a calibrated rate
(``SCALES``), so the five rounds stay comparable whatever the run length:

- **Workloads that write** run that fixed number of blocks in every round.
  Their per-operation cost grows with every commit (the page file is
  append-only, the meta page carries the whole commit log), so only a fixed
  count gives every run the same work.
- **Read-only workloads** run it in the first round (the *counted pass*, the
  one a traced run repeats) and then whole blocks until their share of
  ``--seconds`` is used, so a faster program is measured over more
  operations instead of for a shorter time.

Only the inside of a block is timed (wall clock, and the CPU clock of the
process that runs ``repro``). Schedule generation before it and the oracle
after it are not: every reply is kept and checked against the model once
the round is over. A reply that differs from the model, an exception, or a
refusal counts as a failed operation and contributes no latency sample.
"""

from __future__ import annotations

import gc
import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from time import perf_counter
from typing import Any

from repro.client import ResilientClient
from repro.cluster import Cluster
from repro.geometry.box import Box
from repro.geometry.point import Point
from repro.obs import METRICS
from repro.workloads.points import random_points
from repro.workloads.words import ALPHABET, MAX_WORD_LENGTH, MIN_WORD_LENGTH, random_words

from tracing import Tracer, install_client_side, install_cluster_side, install_server_side

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Seed of everything that is stored (see the module docstring). Not an
#: option: change it here to try another data set, and expect other numbers.
DATA_SEED = 2006

#: ``full`` is the contract's size; ``smoke`` exists for the test. An op is
#: one statement, except on ``wire-write-pairs`` where it is one pair.
#: ``rate`` (ops per second of ``--seconds``, calibrated a little under what
#: the 2-core reference box does) sizes a fixed-count round, so that it
#: takes about ``seconds / rounds``; ``smoke`` fixes its op count outright
#: (``first_round``) instead.
SCALES: dict[str, dict[str, Any]] = {
    "full": {
        "words": 5000,
        "points": 4000,
        "rate": {"wire-point-hot": 150.0, "wire-scan-cold": 12.5,
                 "wire-write-pairs": 75.0, "cluster-route-2pc": 100.0},
        "warmup": {"wire-point-hot": 30, "wire-scan-cold": 10, "wire-write-pairs": 20, "cluster-route-2pc": 100},
    },
    "smoke": {
        "words": 500,
        "points": 400,
        "first_round": {"wire-point-hot": 60, "wire-scan-cold": 30, "wire-write-pairs": 20, "cluster-route-2pc": 100},
        "warmup": {"wire-point-hot": 10, "wire-scan-cold": 10, "wire-write-pairs": 10, "cluster-route-2pc": 100},
    },
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServerProcess:
    """One launcher subprocess: the SQL port plus the control pipe."""

    def __init__(self, directory: str, pool_pages: int, trace: bool) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        argv = [sys.executable, os.path.join(HERE, "launcher.py"), "--dir", directory,
                "--pool-pages", str(pool_pages)]
        if trace:
            argv.append("--trace")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env
        )
        hello = self._read()
        self.port: int = hello["port"]
        self.pid: int = hello["pid"]

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, **request: Any) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu_seconds(self) -> float:
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb(self.pid)

    def quit(self) -> None:
        """Clean shutdown; waits for the process to end."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "quit"}\n')
                self.proc.stdin.close()
            except OSError:
                pass
        self._reap()

    def kill(self) -> None:
        """SIGKILL; waits for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def _reap(self) -> None:
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


class RawConnection:
    """One JSON-line connection (protocol: ``repro/server/net.py``)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rb")

    def send(self, frame: dict) -> None:
        self.sock.sendall(json.dumps(frame).encode() + b"\n")

    def recv(self) -> dict:
        line = self.file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def distinct_words(count: int) -> list[str]:
    """``count`` distinct words of the paper's distribution."""
    words: dict[str, None] = {}
    attempt = 0
    while len(words) < count:
        for word in random_words(count, seed=DATA_SEED * 1009 + attempt):
            words.setdefault(word)
        attempt += 1
    return list(words)[:count]


class Workload:
    """Shared round driver; subclasses supply the system and the schedule."""

    name = ""
    #: True when the load generator shares no process with ``repro`` and
    #: may therefore switch its own GC off inside rounds.
    separate_process = True
    #: True when the schedule changes the data: every round is fixed-count.
    writes = False
    #: Statement classes and how many of each one block holds.
    mix: tuple[tuple[str, int], ...] = ()

    def __init__(
        self, seed: int, scale: str, workdir: str, seconds: float, rounds: int, trace: bool = False
    ) -> None:
        self.seed = seed
        self.sizes = SCALES[scale]
        self.seconds = seconds
        self.rounds = rounds
        self.block = sum(count for _cls, count in self.mix)
        if "rate" in self.sizes:
            self.round_blocks = max(1, round(self.sizes["rate"][self.name] * seconds / rounds / self.block))
        else:
            self.round_blocks = max(1, self.sizes["first_round"][self.name] // self.block)
        self.warmup_ops = self.sizes["warmup"][self.name]
        self.workdir = workdir
        self.tracer = Tracer() if trace else None
        self.rng = random.Random(seed)  # what is asked; replaced per phase in setup()
        self.data_rng = random.Random(DATA_SEED)  # what is stored, and class order; restarted in setup()
        self.data_dir = ""
        self.setups = 0
        # -- what a run accumulates
        self.lat: list[tuple[str, float]] = []  # (class, seconds) per op
        self.statements = 0
        self.busy_s = 0.0
        self.cpu_s = 0.0
        self.round_stats: list[tuple[int, float, float]] = []  # (statements, busy s, cpu s) per round
        self.round_lat: list[list[float]] = []  # latency samples (seconds) per round
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.stored_ratio = 0.0  # stored bytes per user byte, after the latest round
        self._pending: list[tuple[Any, Any]] = []

    # -- subclass surface --------------------------------------------------------

    def _start(self) -> None:
        """Create the system, load it through its front door."""
        raise NotImplementedError

    def _stop(self) -> None:
        raise NotImplementedError

    def _make_op(self, op_class: str) -> Any:
        """Draw one operation of ``op_class``: rows to store from
        ``self.data_rng``, everything else from ``self.rng``."""
        raise NotImplementedError

    def _issue(self, op: Any) -> Any:
        """Run one op; append its latency sample(s); return the reply."""
        raise NotImplementedError

    def _expect(self, op: Any, reply: Any) -> str | None:
        """None when ``reply`` matches the model, else what is wrong."""
        raise NotImplementedError

    def _cpu(self) -> float:
        raise NotImplementedError

    def user_bytes(self) -> int:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def durability_check(self) -> None:
        """Kill/close, reopen, compare with the model; counts failed ops."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------

    def setup(self) -> float:
        """Spawn/create + load + warm-up, up to the first measured op.

        May be called again after :meth:`teardown`: every set-up builds a
        fresh system and replays the same warm-up, so the system the run
        keeps is in the same state whichever set-up produced it.
        """
        self.setups += 1
        self.data_dir = os.path.join(self.workdir, f"{self.name}-{self.setups}")
        os.makedirs(self.data_dir)
        self.rng = random.Random(f"{self.seed}-warmup")
        self.data_rng = random.Random(DATA_SEED)
        start = perf_counter()
        self._start()
        issued = 0
        while issued < self.warmup_ops:
            for op in self._block_ops()[: self.warmup_ops - issued]:
                self._pending.append((op, self._issue(op)))
                issued += 1
        elapsed = perf_counter() - start
        self.verify()
        self._reset_samples()
        self.rng = random.Random(f"{self.seed}-run")
        return elapsed

    def _reset_samples(self) -> None:
        """Forget the warm-up's latency samples."""
        self.lat.clear()
        self.statements = 0

    def teardown(self) -> None:
        self._stop()
        if self.tracer is not None:
            self.tracer.restore()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    # -- rounds ------------------------------------------------------------------

    def run_round(self, round_no: int) -> None:
        """Round 1, and every round of a workload that writes, is fixed-count;
        the others run whole blocks up to ``seconds * round_no / rounds``."""
        before = (self.statements, self.busy_s, self.cpu_s, len(self.lat))
        if self.separate_process:
            gc.disable()
        try:
            if self.writes or round_no == 1:
                for _ in range(self.round_blocks):
                    self._run_block()
            else:
                target = self.seconds * round_no / self.rounds
                while self.busy_s < target:
                    self._run_block()
        finally:
            gc.enable()
        if self.statements > before[0]:
            self.round_stats.append(
                (self.statements - before[0], self.busy_s - before[1], self.cpu_s - before[2])
            )
            self.round_lat.append([seconds for _cls, seconds in self.lat[before[3]:]])
        self.verify()
        self.stored_ratio = self.stored_bytes() / self.user_bytes()

    def stored_bytes(self) -> int:
        """Bytes of every file in the data directory that is not the standby's
        (each replica set here is ``node-0`` plus one standby, ``node-1``)."""
        return sum(
            os.path.getsize(os.path.join(base, name))
            for base, _dirs, files in os.walk(self.data_dir)
            for name in files
            if not name.startswith("node-1.")
        )

    def statement_latencies(self) -> list[tuple[str, float]]:
        """Per-statement ``(class, seconds)`` samples, for the traced run."""
        return self.lat

    def _block_ops(self) -> list[Any]:
        classes = [cls for cls, count in self.mix for _ in range(count)]
        self.data_rng.shuffle(classes)
        return [self._make_op(cls) for cls in classes]

    def _run_block(self) -> None:
        ops = self._block_ops()
        pending = self._pending
        cpu0 = self._cpu()
        start = perf_counter()
        for op in ops:
            try:
                reply = self._issue(op)
            except Exception as exc:  # noqa: BLE001 - a refusal is a failed op, not a crash
                reply = exc
            pending.append((op, reply))
        self.busy_s += perf_counter() - start
        self.cpu_s += self._cpu() - cpu0

    def verify(self) -> None:
        """Check every kept reply against the model, in issue order."""
        for op, reply in self._pending:
            self.attempted += 1
            problem = (
                f"{type(reply).__name__}: {reply}" if isinstance(reply, Exception)
                else self._expect(op, reply)
            )
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op!r}: {problem}")
        self._pending.clear()


# ---------------------------------------------------------------------------
# Wire workloads: the program runs in its own process.
# ---------------------------------------------------------------------------


class WireWorkload(Workload):
    """A launcher subprocess holding N words, driven over TCP."""

    pool_pages = 1024

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.keys = distinct_words(self.sizes["words"])  # preloaded, in id order
        self.rows: dict[str, int] = {}  # the model: key -> id
        self.server: ServerProcess | None = None
        self.client: ResilientClient | None = None

    def _start(self) -> None:
        if self.tracer is not None:
            install_client_side(self.tracer)
        self.rows = {word: i for i, word in enumerate(self.keys)}
        self.server = ServerProcess(self.data_dir, self.pool_pages, trace=self.tracer is not None)
        self.client = ResilientClient([("127.0.0.1", self.server.port)], pool_size=1)
        # One statement, so the index is bulk-built and clustered the way
        # CREATE INDEX over existing rows would leave it.
        values = ", ".join(f"('{word}', {i})" for i, word in enumerate(self.keys))
        status = self.client.execute(f"INSERT INTO data VALUES {values}")
        if status != f"INSERT 0 {len(self.keys)}":
            raise RuntimeError(f"load failed: {status!r}")
        self.client.execute("ANALYZE data")

    def _disconnect(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None

    def _stop(self) -> None:
        self._disconnect()
        if self.server is not None:
            self.server.quit()
            self.server = None

    def _cpu(self) -> float:
        return self.server.cpu_seconds()

    def user_bytes(self) -> int:
        return sum(len(key) + 8 for key in self.rows)

    def peak_rss_mb(self) -> float:
        return self.server.peak_rss_mb()

    def durability_check(self) -> None:
        """Power-loss the server, reopen the directory cold, read everything."""
        self._disconnect()
        self.server.ask(cmd="crash", seed=self.seed)
        self.server.kill()
        self.server = ServerProcess(self.data_dir, self.pool_pages, trace=False)
        self.client = ResilientClient([("127.0.0.1", self.server.port)], pool_size=1)
        self.attempted += len(self.rows)
        try:
            found = dict(self.client.execute("SELECT * FROM data"))
            probes = random.Random(self.seed).sample(sorted(self.rows), min(20, len(self.rows)))
            for key in probes:
                if self.client.execute(f"SELECT * FROM data WHERE key = '{key}'") != [(key, self.rows[key])]:
                    found.pop(key, None)
        except Exception as exc:  # noqa: BLE001 - an unreadable store lost every row
            self.failed += len(self.rows)
            self.failures.append(f"durability: {type(exc).__name__}: {exc}")
            return
        lost = [key for key, row_id in self.rows.items() if found.get(key) != row_id]
        extra = len(set(found) - set(self.rows))
        if lost or extra:
            self.failed += len(lost) + extra
            self.failures.append(f"durability: {len(lost)} acknowledged rows lost, {extra} unknown rows")

    # -- expected answers --------------------------------------------------------

    def _answer(self, op_class: str, operand: str) -> list[tuple[str, int]]:
        rows = self.rows
        if op_class == "eq":
            return [(operand, rows[operand])] if operand in rows else []
        if op_class == "prefix":
            return sorted((k, i) for k, i in rows.items() if k.startswith(operand))
        size = len(operand)
        return sorted(
            (k, i) for k, i in rows.items()
            if len(k) == size and all(p == "?" or p == c for p, c in zip(operand, k))
        )

    # -- traced run --------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """Program counters of both processes (names are disjoint or zero)."""
        merged = dict(self.server.ask(cmd="metrics")["metrics"])
        for name, value in METRICS.snapshot().items():
            merged[name] = merged.get(name, 0.0) + value
        return merged

    def trace_begin(self) -> None:
        self.server.ask(cmd="reset")
        self.tracer.reset()

    def trace_spans(self) -> list[dict]:
        """This process's spans plus the server's, joined per statement."""
        path = os.path.join(self.workdir, f"server-spans-{self.name}.json")
        self.server.ask(cmd="spans", path=path)
        with open(path, encoding="utf-8") as f:
            server_spans = json.load(f)
        os.remove(path)
        return self.tracer.spans + _stitch(self.tracer.spans, server_spans)


_SQL_OP = {"eq": "=", "prefix": "#=", "regex": "?="}


def _stitch(client_spans: list[dict], server_spans: list[dict]) -> list[dict]:
    """Hang each server statement under the client request that caused it.

    Both sides number statements in their own arrival order; within one
    statement kind (SELECT, INSERT) the orders agree, because a connection
    carries one request at a time. The k-th server root of a kind becomes
    the child of the k-th client request of that kind and its whole
    subtree takes the client's statement id. A count mismatch (a retry)
    leaves the server spans unlinked rather than linked wrongly.
    """
    requests: dict[str, list[dict]] = {}
    for span in client_spans:
        if span["name"] in ("SQLClient.execute", "raw.request"):
            requests.setdefault(span.get("tag", "SELECT"), []).append(span)
    roots: dict[str, list[dict]] = {}
    for span in server_spans:
        if span["name"] == "SessionManager.execute":
            roots.setdefault(span["tag"], []).append(span)
    renumber: dict[int, int] = {}
    for kind, kind_roots in roots.items():
        kind_requests = requests.get(kind, [])
        if len(kind_requests) != len(kind_roots):
            continue
        kind_roots.sort(key=lambda s: s["start"])
        for request, root in zip(kind_requests, kind_roots):
            root["parent"] = request["id"]
            renumber[root["stmt"]] = request["stmt"]
    for span in server_spans:
        span["stmt"] = renumber.get(span["stmt"])
    return server_spans


class WirePointHot(WireWorkload):
    name = "wire-point-hot"
    mix = (("eq", 10),)

    def _make_op(self, op_class: str) -> tuple[str, str]:
        rng = self.rng
        if op_class == "eq":
            return ("eq", rng.choice(self.keys))
        if op_class == "prefix":
            word = rng.choice(self.keys)
            while len(word) < 2:
                word = rng.choice(self.keys)
            return ("prefix", word[:2])
        word = rng.choice(self.keys)
        while len(word) < 3:
            word = rng.choice(self.keys)
        chars = list(word)
        for position in rng.sample(range(1, len(chars)), 2):
            chars[position] = "?"
        return ("regex", "".join(chars))

    def _issue(self, op: tuple[str, str]) -> Any:
        sql = f"SELECT * FROM data WHERE key {_SQL_OP[op[0]]} '{op[1]}'"
        start = perf_counter()
        reply = self.client.execute(sql)
        self.lat.append((op[0], perf_counter() - start))
        self.statements += 1
        return reply

    def _expect(self, op: tuple[str, str], reply: Any) -> str | None:
        expected = self._answer(*op)
        if isinstance(reply, list) and sorted(reply) == expected:
            return None
        return f"got {reply!r:.200}, expected {expected!r:.200}"


class WireScanCold(WirePointHot):
    name = "wire-scan-cold"
    pool_pages = 24
    mix = (("eq", 7), ("prefix", 2), ("regex", 1))


class WireWritePairs(WireWorkload):
    name = "wire-write-pairs"
    writes = True
    mix = (("pair", 10),)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.writer: RawConnection | None = None
        self.reader: RawConnection | None = None
        self.stmt_lat: list[tuple[str, float]] = []  # ("write" | "read", seconds) per statement
        self.next_id = 0

    def _start(self) -> None:
        super()._start()
        self.next_id = len(self.keys)
        self._disconnect()
        self.writer = RawConnection(self.server.port)
        self.reader = RawConnection(self.server.port)

    def _disconnect(self) -> None:
        super()._disconnect()
        for conn in (self.writer, self.reader):
            if conn is not None:
                conn.close()
        self.writer = self.reader = None

    def _reset_samples(self) -> None:
        super()._reset_samples()
        self.stmt_lat.clear()

    def statement_latencies(self) -> list[tuple[str, float]]:
        return self.stmt_lat

    def _make_op(self, op_class: str) -> tuple[str, int, str]:
        read_key = self.rng.choice(self.keys)
        rng = self.data_rng
        while True:
            new_key = "".join(rng.choices(ALPHABET, k=rng.randint(MIN_WORD_LENGTH, MAX_WORD_LENGTH)))
            if new_key not in self.rows:
                break
        row_id = self.next_id
        self.next_id += 1
        self.rows[new_key] = row_id  # reserved now, so later draws stay distinct
        return (new_key, row_id, read_key)

    def _issue(self, op: tuple[str, int, str]) -> Any:
        new_key, row_id, read_key = op
        insert = {"sql": f"INSERT INTO data VALUES ('{new_key}', {row_id})",
                  "key": f"e2e-{self.seed}-{row_id}"}
        select = {"sql": f"SELECT * FROM data WHERE key = '{read_key}'"}
        writer, reader = self.writer, self.reader
        t0 = perf_counter()
        writer.send(insert)
        t1 = perf_counter()
        reader.send(select)
        wrote = writer.recv()
        t2 = perf_counter()
        read = reader.recv()
        t3 = perf_counter()
        self.lat.append(("pair", t3 - t0))
        self.stmt_lat.append(("write", t2 - t0))
        self.stmt_lat.append(("read", t3 - t1))
        if self.tracer is not None:
            self.tracer.add_span("raw.request", t0, t2, stmt=self.statements, tag="INSERT")
            self.tracer.add_span("raw.request", t1, t3, stmt=self.statements + 1, tag="SELECT")
        self.statements += 2
        return (wrote, read)

    def _expect(self, op: tuple[str, int, str], reply: Any) -> str | None:
        _new_key, _row_id, read_key = op
        wrote, read = reply
        if wrote != {"ok": True, "status": "INSERT 0 1"}:
            return f"insert answered {wrote!r:.200}"
        if read != {"ok": True, "rows": [[read_key, self.rows[read_key]]]}:
            return f"select answered {read!r:.200}"
        return None


# ---------------------------------------------------------------------------
# Cluster workload: the program runs in this process.
# ---------------------------------------------------------------------------


class ClusterRoute2pc(Workload):
    name = "cluster-route-2pc"
    separate_process = False
    writes = True
    mix = (("point", 70), ("window", 12), ("nn", 3), ("insert1", 5), ("insert4", 10))
    shards = 4
    pool_pages = 512

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        points = random_points(self.sizes["points"], seed=DATA_SEED)
        self.loaded: list[tuple[Point, int]] = [(p, i) for i, p in enumerate(points)]
        self.model: list[tuple[Point, int]] = []
        self.next_id = len(points)
        self.cluster: Cluster | None = None

    def _open(self) -> Cluster:
        return Cluster(self.data_dir, kind="kdtree", shards=self.shards, replicas=1,
                       fsync=True, pool_pages=self.pool_pages)

    def _start(self) -> None:
        if self.tracer is not None:
            install_server_side(self.tracer)
            install_cluster_side(self.tracer)
        self.cluster = self._open()
        self.model = list(self.loaded)
        self.next_id = len(self.loaded)
        for start in range(0, len(self.loaded), 512):
            self.cluster.insert(self.loaded[start:start + 512])

    def _stop(self) -> None:
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def _cpu(self) -> float:
        return time.process_time()

    def user_bytes(self) -> int:
        return len(self.model) * (16 + 8)

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb("self")

    def _new_point(self) -> Point:
        rng = self.data_rng
        return Point(round(rng.uniform(0.0, 100.0), 3), round(rng.uniform(0.0, 100.0), 3))

    def _new_row(self, point: Point) -> tuple[Point, int]:
        row = (point, self.next_id)
        self.next_id += 1
        return row

    def _make_op(self, op_class: str) -> tuple[str, Any]:
        rng = self.rng
        if op_class == "point":
            return ("point", rng.choice(self.loaded)[0])
        if op_class == "window":
            x, y = rng.uniform(0.0, 90.0), rng.uniform(0.0, 90.0)
            return ("window", Box(x, y, x + 10.0, y + 10.0))
        if op_class == "nn":
            return ("nn", Point(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)))
        if op_class == "insert1":
            return ("insert1", [self._new_row(self._new_point())])
        # One row per quadrant of the world: every shard of the four-way
        # space partition takes part, so each of these is a two-phase
        # commit of the same width (a random spread made the commit count,
        # and with it stored bytes and p95, vary from run to run).
        rng = self.data_rng
        points = [
            Point(round(rng.uniform(x0, x0 + 49.999), 3), round(rng.uniform(y0, y0 + 49.999), 3))
            for x0, y0 in ((0.0, 0.0), (50.001, 0.0), (0.0, 50.001), (50.001, 50.001))
        ]
        return ("insert4", [self._new_row(p) for p in points])

    def _issue(self, op: tuple[str, Any]) -> Any:
        kind, operand = op
        cluster = self.cluster
        start = perf_counter()
        if kind == "point":
            reply = cluster.search("@", operand)
        elif kind == "window":
            reply = cluster.search("^", operand)
        elif kind == "nn":
            reply = cluster.nn_search(operand, limit=10)
        else:
            reply = cluster.insert(operand)
        self.lat.append((kind, perf_counter() - start))
        self.statements += 1
        return reply

    def _expect(self, op: tuple[str, Any], reply: Any) -> str | None:
        kind, operand = op
        model = self.model
        if kind == "point":
            expected = sorted(row for row in model if row[0] == operand)
        elif kind == "window":
            expected = sorted(row for row in model if operand.contains_point(row[0]))
        elif kind == "nn":
            # Ties may order either way: compare the distances, and require
            # every returned row to exist.
            known = set(model)
            if any(row not in known for row in reply):
                return f"nn returned an unknown row: {reply!r:.200}"
            got = [_distance(row[0], operand) for row in reply]
            want = sorted(_distance(row[0], operand) for row in model)[:10]
            return None if got == want else f"nn distances {got!r:.120} != {want!r:.120}"
        else:
            model.extend(operand)  # acknowledged (an exception never gets here)
            return None
        return None if sorted(reply) == expected else f"got {reply!r:.200}, expected {expected!r:.200}"

    def durability_check(self) -> None:
        """Clean index check, then close and reopen cold and count the rows."""
        self.attempted += len(self.model)
        bad = [name for name, report in self.cluster.check().items() if not report.ok]
        if bad:
            self.failed += len(bad)
            self.failures.append(f"durability: Cluster.check() found problems on {bad}")
        self.cluster.close()
        self.cluster = self._open()
        found = sorted(self.cluster.all_rows())
        if found != sorted(self.model):
            missing = len(set(self.model) - set(found))
            self.failed += max(1, missing, abs(len(found) - len(self.model)))
            self.failures.append(
                f"durability: reopened cluster holds {len(found)} rows, model {len(self.model)}, {missing} lost"
            )

    # -- traced run --------------------------------------------------------------

    def counters(self) -> dict[str, float]:
        return METRICS.snapshot()

    def trace_begin(self) -> None:
        self.tracer.reset()

    def trace_spans(self) -> list[dict]:
        return self.tracer.spans


def _distance(a: Point, b: Point) -> float:
    return ((a.x - b.x) ** 2 + (a.y - b.y) ** 2) ** 0.5


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (WirePointHot, WireScanCold, WireWritePairs, ClusterRoute2pc)
}
