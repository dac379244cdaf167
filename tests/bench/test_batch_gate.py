"""Batch read path + repack regression gate against the committed BENCH_8.json.

Fast-tier: re-executes the quick sections of the batch benchmark
in-process and fails when

- the batch executor has stopped beating the reconstructed tuple-at-a-time
  pipeline (wall-clock ratio, same machine, same process),
- a batch size in the sweep stops producing the identical row counts
  (a correctness regression the oracle would also catch, cheaper here),
- ``repack_online`` no longer restores a churn-degraded index to the
  required fill factor, or breaks the tree while doing it,
- the per-waiter lock wait path has stopped waking strictly fewer threads
  than the removed broadcast design did (its count is in BENCH_8.json), or
- the committed full-scale report no longer claims the acceptance
  headline.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.bench_8 import (
    SCHEMA,
    SWEEP_BATCH_SIZES,
    run_locks,
    run_repack,
    run_scan,
)

#: The committed benchmark baseline at the repo root.
BENCH_PATH = Path(__file__).resolve().parents[2] / "BENCH_8.json"

#: The PR's acceptance floor for the committed full-scale scan-heavy mix.
REQUIRED_FULL_SPEEDUP = 1.5

#: CI floor for the in-process quick re-run: below the recorded ~1.9x so
#: scheduler noise cannot flake it, far enough above 1.0 that a genuinely
#: regressed batch path cannot sneak through.
REQUIRED_QUICK_SPEEDUP = 1.3

#: The PR's acceptance floor for online repack on a churn-degraded index.
REQUIRED_REPACK_FILL = 0.90


@pytest.fixture(scope="module")
def committed() -> dict:
    assert BENCH_PATH.exists(), (
        f"{BENCH_PATH} is missing; regenerate with "
        "`PYTHONPATH=src python -m repro.bench.bench_8 --out BENCH_8.json`"
    )
    report = json.loads(BENCH_PATH.read_text())
    assert report["schema"] == SCHEMA
    return report


@pytest.fixture(scope="module")
def scan_now() -> dict:
    """One in-process quick scan comparison shared by the gate assertions."""
    return run_scan("quick")


class TestCommittedReport:
    def test_full_scale_meets_headline_speedup(self, committed):
        mixed = committed["scan"]["full"]["mixed"]
        assert mixed["speedup"] >= REQUIRED_FULL_SPEEDUP, (
            f"committed full-scale scan speedup {mixed['speedup']}x is "
            f"below the {REQUIRED_FULL_SPEEDUP}x acceptance floor"
        )

    def test_sweep_covers_required_batch_sizes(self, committed):
        recorded = set(committed["sweep"]["batch_sizes"])
        for size in SWEEP_BATCH_SIZES:
            assert str(size) in recorded, f"sweep is missing batch size {size}"
        assert committed["sweep"]["rows_identical"] is True

    def test_committed_repack_meets_fill_floor(self, committed):
        repack = committed["repack"]
        assert repack["fill_after"] >= REQUIRED_REPACK_FILL
        assert repack["fill_after"] > repack["fill_degraded"]
        assert repack["check_ok"] is True
        assert repack["missing_after_repack"] == 0

    def test_committed_per_waiter_wakes_fewer(self, committed):
        locks = committed["locks"]
        assert (
            locks["per_waiter"]["wakeups"] < locks["broadcast"]["wakeups"]
        ), "per-waiter conditions should wake strictly fewer threads"
        # The two designs must have done the same logical locking work.
        assert locks["per_waiter"]["grants"] == locks["broadcast"]["grants"]


class TestBatchPathRegression:
    def test_batched_path_still_beats_tuple_at_a_time(self, scan_now):
        mixed = scan_now["mixed"]
        assert mixed["speedup"] >= REQUIRED_QUICK_SPEEDUP, (
            f"batch read path regressed: quick scan speedup is now "
            f"{mixed['speedup']}x (< {REQUIRED_QUICK_SPEEDUP}x). "
            "If this is an intentional trade-off, regenerate BENCH_8.json "
            "and justify the change."
        )

    def test_every_shape_produces_identical_rows(self, scan_now):
        # run_scan already asserts baseline == batched per shape; pin the
        # shape list here so a silently dropped shape also fails.
        assert set(scan_now["shapes"]) == {"seq", "filter", "index", "project"}

    def test_repack_restores_fill_now(self):
        repack = run_repack(words=3000)
        assert repack["fill_after"] >= REQUIRED_REPACK_FILL
        assert repack["check_ok"] is True
        assert repack["missing_after_repack"] == 0
        assert repack["pages_freed"] > 0

    def test_per_waiter_wakes_fewer_now(self, committed):
        # Same storm as the committed run, whose broadcast arm recorded
        # what waking every parked waiter on every release costs.
        recorded = committed["locks"]
        locks = run_locks(recorded["threads"], recorded["rounds"])
        assert locks["per_waiter"]["wakeups"] < recorded["broadcast"]["wakeups"]
        assert locks["per_waiter"]["wakeups"] <= locks["per_waiter"]["waits"]
        assert locks["per_waiter"]["grants"] == recorded["broadcast"]["grants"]
