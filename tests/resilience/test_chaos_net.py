"""Network-edge chaos: exactly-once through wire kills, crashes, drains.

The fast tier runs a handful of seeded schedules through the flaky
proxy (both the crash and drain scenarios land, since scenario is
``seed % 2``). The slow tier is the PR 9 acceptance run: 100+ schedules
asserting **zero lost acked commits and zero duplicate idempotency-key
applies**.
"""

from __future__ import annotations

import pytest

from repro.resilience.chaos import run_campaign
from repro.resilience.chaos_net import run_net_schedule


def _explain(transcript: dict) -> str:
    return (
        f"seed={transcript['seed']} failures: "
        + "; ".join(transcript["failures"][:5])
    )


class TestSingleSchedules:
    def test_crash_scenario_schedule(self) -> None:
        transcript = run_net_schedule(0, clients=3, statements=8)
        assert transcript["scenario"] == "crash"
        assert transcript["ok"], _explain(transcript)
        assert transcript["stats"]["acked_writes"] > 0

    def test_drain_scenario_schedule(self) -> None:
        transcript = run_net_schedule(1, clients=3, statements=8)
        assert transcript["scenario"] == "drain"
        assert transcript["ok"], _explain(transcript)
        assert transcript["stats"]["acked_writes"] > 0


class TestFastCampaign:
    def test_six_schedules_zero_violations(self) -> None:
        summary = run_campaign(
            6, base_seed=100, schedule=run_net_schedule, clients=3, statements=8
        )
        assert summary["ok"], [_explain(t) for t in summary["failed"]]
        totals = summary["totals"]
        # The chaos actually bit: wire kills happened and the dedup
        # cache absorbed at least one re-send across the campaign.
        assert (
            totals.get("proxy_dropped_requests", 0)
            + totals.get("proxy_dropped_responses", 0)
        ) > 0
        assert totals.get("acked_writes", 0) > 0


@pytest.mark.slow
class TestAcceptanceCampaign:
    def test_hundred_schedules_exactly_once(self) -> None:
        summary = run_campaign(
            100, base_seed=0, schedule=run_net_schedule, clients=4, statements=12
        )
        assert summary["ok"], [_explain(t) for t in summary["failed"]]
        totals = summary["totals"]
        assert totals.get("acked_writes", 0) > 0
        assert totals.get("acked_txns", 0) > 0
        # Both halves of the exactly-once window were exercised.
        assert totals.get("proxy_dropped_responses", 0) > 0
        assert totals.get("dedup_hits", 0) > 0
