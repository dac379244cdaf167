"""Crash-safety of online REPACK: kill-anywhere recovery + standby equivalence.

The online repack rewrites index extents through the buffer pool, so its
WAL protocol is the ordinary one — every touched page ships as a full
page image at the next commit. These tests pin the two halves of that
claim:

- a primary killed *mid-repack* (pages rewritten in memory, commit never
  issued) recovers to the last committed layout: no acknowledged row is
  lost, ``spgist_check`` is clean, and index and heap still agree;
- a *committed* repack replicates byte-correctly: after catch-up the
  standby holds the same rows, the same page fill, and a clean structure
  — and a standby promoted after the primary dies post-repack serves the
  re-clustered index.

A seeded mini-campaign also drives the chaos harness's ``repack`` event
(the 0.90–0.95 roll slice) to make sure bounded background steps compose
with crashes, faulty channels, and failover.
"""

import random

import pytest

from repro.replication import ReplicaSet
from repro.resilience.chaos import run_campaign
from repro.resilience.check import spgist_check


def _fresh_set(tmp_path, replicas=2, pool_pages=64):
    return ReplicaSet(
        str(tmp_path),
        kind="trie",
        replicas=replicas,
        quorum=1,
        heartbeat_timeout=3,
        max_lag=2,
        fsync=False,
        pool_pages=pool_pages,
    )


def _churn(rs, rows=240, keep_every=3, seed=7):
    """Insert ``rows`` rows, delete all but every ``keep_every``-th key,
    vacuum, and replicate — leaving a fragmented, low-fill index."""
    rng = random.Random(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz"
    keys = [
        "".join(rng.choice(alphabet) for _ in range(rng.randint(4, 9))) + str(i)
        for i in range(rows)
    ]
    for start in range(0, rows, 16):
        rs.client_write([(key, start + i) for i, key in
                         enumerate(keys[start:start + 16])])
    doomed = {key for i, key in enumerate(keys) if i % keep_every}
    primary = rs.primary
    txn = primary.txn.begin()
    for tid, row in list(primary.table.scan()):
        if row[0] in doomed:
            primary.table.mvcc_delete(tid, txn)
    primary.txn.commit(txn)
    rs.client_vacuum()
    assert rs.catch_up()
    return [key for i, key in enumerate(keys) if i % keep_every == 0]


class TestMidRepackCrash:
    def test_crash_before_commit_recovers_committed_layout(self, tmp_path, pool_pages=64):
        """Kill-anywhere: an uncommitted repack must vanish on recovery."""
        rs = _fresh_set(tmp_path, pool_pages=pool_pages)
        try:
            survivors = _churn(rs)
            committed_rows = set(rs.primary.rows())
            fill_committed = rs.primary.index.store.fill_factor()

            # Rewrite the whole index in memory, then die without committing.
            stats = rs.primary.repack_index()
            assert stats.nodes_moved > 0
            rs.primary.crash(seed=1234)
            rs.rejoin(rs.primary)
            assert not rs.primary.crashed

            # Recovery lands on the last committed layout, not the torn one.
            assert set(rs.primary.rows()) == committed_rows
            report = spgist_check(rs.primary.index)
            assert report.ok, report.describe()
            assert rs.primary.index.store.fill_factor() == pytest.approx(
                fill_committed, abs=0.05
            )
            equality = rs.primary.index.methods.equality_operator
            for key in survivors[:20]:
                assert list(rs.primary.search(equality, key)), key
            # The cluster keeps working: repack again, commit, replicate.
            rs.client_repack()
            assert rs.catch_up()
            assert set(rs.primary.rows()) == committed_rows
        finally:
            rs.close()

    def test_crash_between_bounded_steps(self, tmp_path, pool_pages=64):
        """Each committed step is durable; the uncommitted one is not."""
        rs = _fresh_set(tmp_path, pool_pages=pool_pages)
        try:
            _churn(rs)
            committed_rows = set(rs.primary.rows())
            for _ in range(3):  # autovacuum-style bounded steps, committed
                rs.client_repack(max_subtrees=1)
            stepped_fill = rs.primary.index.store.fill_factor()

            rs.primary.repack_index(max_subtrees=1)  # uncommitted step
            rs.primary.crash(seed=99)
            rs.rejoin(rs.primary)

            assert set(rs.primary.rows()) == committed_rows
            assert rs.primary.index.store.fill_factor() == pytest.approx(
                stepped_fill, abs=0.05
            )
            assert spgist_check(rs.primary.index).ok
        finally:
            rs.close()


class TestRepackReplication:
    def test_committed_repack_is_byte_equivalent_on_standby(self, tmp_path, pool_pages=64):
        rs = _fresh_set(tmp_path, pool_pages=pool_pages)
        try:
            survivors = _churn(rs)
            before = rs.primary.index.store.fill_factor()
            rs.client_repack()
            assert rs.catch_up()
            after = rs.primary.index.store.fill_factor()
            assert after > before

            standby = rs.standbys[0].node
            # Pages replicate as images: the standby's index is the
            # primary's, fill factor and all.
            assert standby.index.store.fill_factor() == pytest.approx(after)
            assert set(standby.rows()) == set(rs.primary.rows())
            assert spgist_check(standby.index).ok
            equality = standby.index.methods.equality_operator
            for key in survivors[:20]:
                assert sorted(standby.search(equality, key), key=repr) == sorted(
                    rs.primary.search(equality, key), key=repr
                ), key
        finally:
            rs.close()

    def test_promoted_standby_serves_the_repacked_index(self, tmp_path, pool_pages=64):
        rs = _fresh_set(tmp_path, pool_pages=pool_pages)
        try:
            survivors = _churn(rs)
            rs.client_repack()
            assert rs.catch_up()
            expected = set(rs.primary.rows())

            rs.primary.crash(seed=5)
            for _ in range(rs.heartbeat_timeout + 2):
                rs.tick()
            assert not rs.primary.crashed, "failover must elect a standby"

            assert set(rs.primary.rows()) == expected
            assert spgist_check(rs.primary.index).ok
            equality = rs.primary.index.methods.equality_operator
            for key in survivors[:20]:
                assert list(rs.primary.search(equality, key)), key
        finally:
            rs.close()


@pytest.mark.parametrize("pool_pages", [2, 4])
@pytest.mark.parametrize(
    "claim",
    [
        TestMidRepackCrash.test_crash_before_commit_recovers_committed_layout,
        TestMidRepackCrash.test_crash_between_bounded_steps,
        TestRepackReplication.test_committed_repack_is_byte_equivalent_on_standby,
        TestRepackReplication.test_promoted_standby_serves_the_repacked_index,
    ],
    ids=lambda claim: claim.__name__,
)
def test_claim_holds_when_repack_evicts_its_own_pages(
    claim, tmp_path, pool_pages
):
    """The same four claims with a pool smaller than the extent being
    moved, so the repack's own reads evict the pages it is writing."""
    claim(None, tmp_path, pool_pages)


class TestRepackChaosCampaign:
    def test_campaign_with_repack_events_is_green(self):
        """Seeded schedules now draw ``repack`` events from the roll slice
        0.90–0.95; the invariants (zero acked loss, node equivalence,
        clean spgist_check) must hold with them in the mix."""
        summary = run_campaign(12, base_seed=800)
        assert summary["ok"], "; ".join(
            f"seed {t['seed']}: {t['failures']}" for t in summary["failed"]
        )
