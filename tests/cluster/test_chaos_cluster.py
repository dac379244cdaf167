"""Cluster chaos campaigns: shard kills, coordinator crashes, flaky nets.

The fast campaign keeps tier-1 honest; the 100-schedule acceptance run
(the ISSUE 10 bar) is ``slow`` — run it with ``--runslow`` or via the CI
chaos job.
"""

from __future__ import annotations

import pytest

from repro.resilience.chaos import run_campaign
from repro.resilience.chaos_cluster import run_cluster_schedule


def _describe(summary):
    return "\n".join(
        f"seed={t['seed']}: {'; '.join(t['failures'][:3])}"
        for t in summary["failed"]
    )


class TestClusterChaosFast:
    def test_small_campaign_holds_invariants(self):
        summary = run_campaign(
            4, base_seed=0, schedule=run_cluster_schedule, ops=30, shards=3
        )
        assert summary["ok"], _describe(summary)
        # the campaign actually exercised the distributed machinery
        totals = summary["totals"]
        assert totals.get("writes_acked_multi", 0) > 0
        assert totals.get("point_reads", 0) + totals.get("scatter_reads", 0) > 0

    def test_single_schedule_is_deterministic(self):
        first = run_cluster_schedule(seed=3, ops=25, shards=3)
        second = run_cluster_schedule(seed=3, ops=25, shards=3)
        assert first["ok"], "; ".join(first["failures"][:3])
        assert first["events"] == second["events"]
        assert first["stats"] == second["stats"]


@pytest.mark.slow
class TestClusterChaosAcceptance:
    def test_hundred_schedule_acceptance(self):
        """ISSUE 10 acceptance: 100 schedules, zero lost acked commits,
        zero dirty cross-shard reads, clean spgist_check throughout."""
        summary = run_campaign(
            100, base_seed=0, schedule=run_cluster_schedule, ops=40, shards=3
        )
        assert summary["ok"], _describe(summary)
