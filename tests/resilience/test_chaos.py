"""The end-to-end chaos campaign: seeded schedules over a live replica set.

The fast tier runs 25 schedules on every PR (the CI ``chaos`` matrix job);
the full 200-schedule campaign — the acceptance bar for the replication
subsystem — runs behind the ``slow`` marker. Every schedule asserts, after
healing: zero loss of acknowledged commits, logical equivalence of all
nodes, per-node index/heap agreement, ``spgist_check`` cleanliness, and
failover within the heartbeat-timeout bound.
"""

import json

import pytest

from repro.resilience.chaos import main, run_campaign, run_schedule

FAST_SCHEDULES = 25
FULL_SCHEDULES = 200


def _assert_green(summary):
    assert summary["ok"], "; ".join(
        f"seed {t['seed']}: {t['failures']}" for t in summary["failed"]
    )
    # The campaign must actually have exercised the machinery it verifies.
    assert summary["totals"]["acked_rows"] > 0
    assert summary["totals"]["failovers"] > 0


class TestChaosCampaign:
    def test_fast_campaign_is_green(self):
        _assert_green(run_campaign(FAST_SCHEDULES, base_seed=0))

    @pytest.mark.slow
    def test_full_campaign_is_green(self):
        _assert_green(run_campaign(FULL_SCHEDULES, base_seed=0))

    def test_schedules_are_deterministic(self):
        first = run_schedule(1234)
        second = run_schedule(1234)
        assert first["events"] == second["events"]
        assert first["stats"] == second["stats"]
        assert first["ok"] and second["ok"]

    def test_transcript_carries_the_reproduction_context(self):
        transcript = run_schedule(7)
        assert transcript["seed"] == 7
        assert transcript["kind"] in ("trie", "pquad")
        assert transcript["events"], "a schedule must record its events"
        assert "failures" in transcript and "stats" in transcript
        json.dumps(transcript, default=repr)  # artifact-serializable


class TestChaosCLI:
    def test_cli_green_run_exits_zero(self, capsys):
        assert main(["--schedules", "3", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "all schedules green" in out

    def test_cli_writes_single_schedule_transcript(self, tmp_path):
        out_path = tmp_path / "transcript.json"
        assert main(
            ["--schedules", "1", "--seed", "42", "--transcript", str(out_path)]
        ) == 0
        transcript = json.loads(out_path.read_text())
        assert transcript["seed"] == 42
