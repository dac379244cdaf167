"""Smoke test of the end-to-end benchmark (slow tier, ~15 s).

``benchmarks/conftest.py`` marks everything under ``benchmarks/`` slow, so
tier 1 skips this; run it with ``pytest --runslow benchmarks/e2e``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_matches_the_contract() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    workloads = [w["name"] for w in contract["workloads"]]
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]
    assert len(workloads) <= 8 and len(end_to_end) <= 16 and len(per_layer) <= 128
    for name in workloads + end_to_end + per_layer:
        assert _NAME.fullmatch(name), name

    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke", "--seed", "7", "--trace"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])

    assert list(result["workloads"]) == workloads
    for name, metrics in result["workloads"].items():
        assert list(metrics) == end_to_end + per_layer, name
        for spec in contract["end_to_end"] + contract["per_layer"]:
            assert metrics[spec["name"]]["unit"] == spec["unit"]
        for metric in end_to_end:
            assert metrics[metric]["value"] > 0, (name, metric)
        assert os.path.exists(os.path.join(HERE, "out", f"trace-{name}.json"))
    assert result["failed"] == 0 and result["correct"] is True
    assert result["attempted"] > 0
