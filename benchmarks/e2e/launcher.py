"""The program under test, in its own process, behind its real front door.

``python launcher.py --dir D --pool-pages N [--trace]`` builds

    ReplicaSet(kind="trie", replicas=1, quorum=1, fsync=True)
      -> ReplicatedDatabase -> SessionManager -> SQLServer

with the default ``SETTINGS`` and serves it on an ephemeral port. An
existing directory is reopened cold (WAL recovery), which is what the
durability check relies on. SQL goes over TCP like any client's; the
harness's own questions (counters, spans, crash) go over this process's
stdin/stdout as JSON lines, so they never perturb the serving path:

    {"cmd": "metrics"}            -> {"metrics": METRICS.snapshot()}
    {"cmd": "reset"}              -> {"ok": true}      (traced: drop spans)
    {"cmd": "spans", "path": P}   -> {"spans": <count written to P>}
    {"cmd": "crash", "seed": S}   -> {"ok": true}      (tear unsynced file tails; then SIGKILL me)
    {"cmd": "quit"} or EOF        -> clean shutdown, exit 0
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True)
    parser.add_argument("--pool-pages", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracing import Tracer, install_server_side

        tracer = Tracer(id_base=1_000_000_000)
        install_server_side(tracer)

    from repro.obs import METRICS
    from repro.replication.replicaset import ReplicaSet
    from repro.server import ReplicatedDatabase, SessionManager
    from repro.server.net import SQLServer

    replica_set = ReplicaSet(
        args.dir, kind="trie", replicas=1, quorum=1, fsync=True, pool_pages=args.pool_pages
    )
    manager = SessionManager(ReplicatedDatabase(replica_set))
    server = SQLServer(manager).start()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"ready": True, "port": server.address[1], "pid": os.getpid()})
    for line in sys.stdin:
        request = json.loads(line)
        cmd = request.get("cmd")
        if cmd == "metrics":
            reply({"metrics": METRICS.snapshot()})
        elif cmd == "reset":
            if tracer is not None:
                tracer.reset()
            reply({"ok": True})
        elif cmd == "spans":
            reply({"spans": tracer.dump(request["path"]) if tracer is not None else 0})
        elif cmd == "crash":
            # Power loss, not just process death: drop whatever the files
            # hold beyond their last fsync, so the reopen sees only bytes
            # that were durable when the writes were acknowledged.
            for node in replica_set.nodes:
                node.crash(seed=request.get("seed"))
            reply({"ok": True})
        elif cmd == "quit":
            break
        else:
            reply({"error": f"unknown command {cmd!r}"})
    server.stop()
    manager.stop()
    replica_set.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
