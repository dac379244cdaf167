"""Regression: shed reads in the failover window respect max_lag (PR 10).

Two related holes, one scenario. With the primary crashed but failover
not yet complete:

1. ``ReplicaSet._route_read`` used to waive the lag bound entirely
   (``head`` was None), so a standby arbitrarily far behind could serve
   a "lag-bounded" read even though the most-caught-up live standby —
   the node ``_failover`` is about to elect — was many commits ahead.
2. ``ReplicatedDatabase.standby_reader`` routed under the old epoch; a
   failover completing while the read was in flight could hand back rows
   from a node beyond ``max_lag`` of the *new* primary. The epoch fence
   now re-validates the serving node after the read and declines.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.engine.parse import parse
from repro.replication.replicaset import ReplicaSet
from repro.resilience.faults import ChannelFaultPolicy
from repro.server.bridge import ReplicatedDatabase


def _cluster_with_lagged_standby(tmp: str) -> ReplicaSet:
    """Primary + caught-up standby (node-1) + fully-lagged standby (node-2).

    node-2's shipping channel drops every frame, so it stays at
    applied_seq 0 while node-1 acknowledges everything.
    """
    rs = ReplicaSet(
        tmp,
        kind="trie",
        replicas=2,
        quorum=1,
        max_lag=1,
        fsync=False,
        channel_policies=[
            ChannelFaultPolicy(),
            ChannelFaultPolicy(seed=7, drop_rate=1.0),
        ],
    )
    for i in range(5):
        rs.client_write([(f"word-{i}", i)])
    caught_up = rs.standbys[0].node
    lagged = rs.standbys[1].node
    assert caught_up.applied_seq == rs.primary.commit_seq
    assert lagged.applied_seq < rs.primary.commit_seq - rs.max_lag
    return rs


class TestRouteReadWindow:
    def test_lag_bound_holds_while_primary_is_down(self):
        with tempfile.TemporaryDirectory() as tmp:
            rs = _cluster_with_lagged_standby(tmp)
            caught_up = rs.standbys[0].node
            rs.primary.crash()
            # The failover window: no primary yet, reads still served.
            # Every routed read must come from the future winner (the
            # caught-up standby), never the dropped-frames straggler.
            for _ in range(6):
                rows = rs.client_read("=", "word-4")
                assert rs.last_served_by == caught_up.name
                assert rows, (
                    "read served by a standby that never applied the "
                    "acknowledged commit"
                )
            rs.close()

    def test_straggler_serves_once_within_bound(self):
        """Control: a standby inside max_lag is still eligible."""
        with tempfile.TemporaryDirectory() as tmp:
            rs = ReplicaSet(
                tmp, kind="trie", replicas=2, quorum=2, max_lag=2, fsync=False
            )
            rs.client_write([("alpha", 1)])
            rs.primary.crash()
            served = set()
            for _ in range(4):
                rs.client_read("=", "alpha")
                served.add(rs.last_served_by)
            assert len(served) == 2  # both standbys rotate: both in bound
            rs.close()

    def test_no_live_standby_raises_cleanly(self):
        with tempfile.TemporaryDirectory() as tmp:
            rs = ReplicaSet(tmp, kind="trie", replicas=1, quorum=1, fsync=False)
            rs.client_write([("alpha", 1)])
            rs.primary.crash()
            rs.standbys[0].node.crash()
            from repro.errors import PrimaryUnavailableError

            with pytest.raises(PrimaryUnavailableError):
                rs.client_read("=", "alpha")
            rs.close()


class TestStandbyReaderEpochFence:
    def _failover_during_read(self, rs: ReplicaSet, rdb: ReplicatedDatabase):
        """Wrap client_read so a failover completes while it is in flight."""
        lagged = rs.standbys[1].node
        original = rs.client_read

        def read_with_concurrent_failover(op, operand):
            rows = original(op, operand)
            # The chaos thread's interleaving, compressed: primary dies
            # and the caught-up standby is promoted before the shed read
            # returns to the session manager. Exactly heartbeat_timeout
            # ticks: promotion fires on the last one, and no pump has
            # run since, so the straggler is still unresynced — the
            # sharpest version of the window.
            rs.primary.crash()
            for _ in range(rs.heartbeat_timeout):
                rs.tick()
            assert rs.primary is not rdb._bound_node  # epoch really moved
            # Pretend the routing decision had picked the straggler: the
            # rows it would have produced are stale beyond max_lag of the
            # *new* primary.
            rs.last_served_by = lagged.name
            return rows

        rs.client_read = read_with_concurrent_failover  # type: ignore[method-assign]

    def test_fence_declines_stale_rows_after_failover(self):
        with tempfile.TemporaryDirectory() as tmp:
            rs = _cluster_with_lagged_standby(tmp)
            rdb = ReplicatedDatabase(rs)
            self._failover_during_read(rs, rdb)
            result = rdb.standby_reader(parse("SELECT * FROM data WHERE key = 'word-4'"))
            assert result is None, (
                "epoch fence must decline a shed read served beyond "
                "max_lag of the new primary"
            )
            rs.close()

    def test_fence_passes_reads_from_a_caught_up_node(self):
        with tempfile.TemporaryDirectory() as tmp:
            rs = _cluster_with_lagged_standby(tmp)
            rdb = ReplicatedDatabase(rs)
            caught_up = rs.standbys[0].node
            original = rs.client_read

            def read_with_benign_failover(op, operand):
                rows = original(op, operand)
                rs.primary.crash()
                for _ in range(rs.heartbeat_timeout):
                    rs.tick()
                rs.last_served_by = caught_up.name
                return rows

            rs.client_read = read_with_benign_failover  # type: ignore[method-assign]
            result = rdb.standby_reader(parse("SELECT * FROM data WHERE key = 'word-4'"))
            # The serving node IS the new primary (lag 0): rows stand.
            assert result is not None and len(result) == 1
            rs.close()

    def test_quiet_path_unchanged(self):
        with tempfile.TemporaryDirectory() as tmp:
            rs = _cluster_with_lagged_standby(tmp)
            rdb = ReplicatedDatabase(rs)
            result = rdb.standby_reader(parse("SELECT * FROM data WHERE key = 'word-4'"))
            assert result is not None and len(result) == 1
            rs.close()
