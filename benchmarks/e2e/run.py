#!/usr/bin/env python3
"""One repeatable front-door benchmark of the whole stack.

    python benchmarks/e2e/run.py [--seed N] [--trace]            # all four workloads, interleaved
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1   # the BENCHMARK.json contract

Without ``--workload`` all four systems are set up first and then measured
in interleaved rounds (W1 W2 W3 W4, five times), so that a slow minute of
a shared machine is spread over every workload instead of landing on one.
With ``--workload`` one workload is set up, measured for ``--seconds`` and
reported alone; that is the form ``BENCHMARK.json`` names.

Every end-to-end metric is printed by name with its unit, every reply is
checked against a model, and the last line of standard output is one JSON
object. ``--trace`` runs a separate traced pass on fresh systems and
prints the per-layer metrics instead (``--workload`` form) or as well;
end-to-end metrics are never taken from a traced run. See README.md here.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
from statistics import median
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

#: Set-ups per run; ``setup_s`` is their median and the last one is kept.
SETUP_REPEATS = 3
#: Rounds the measured time is cut into (round 1 is the counted pass).
ROUNDS = 5
#: Fewer latency samples than this no longer support a 95th percentile
#: (ten samples beyond it).
RESIZE_SAMPLES = 200


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(workload: Any, setup_times: list[float]) -> dict[str, float]:
    """The seven end-to-end metrics of one measured workload."""
    samples = sorted(seconds for _cls, seconds in workload.lat)
    rounds = workload.round_stats
    return {
        "setup_s": median(setup_times),
        # The median round, not the pooled total: a burst of a few seconds
        # on a shared machine then costs one round, not the run.
        "throughput_ops_s": median(statements / busy for statements, busy, _cpu in rounds),
        "latency_p50_ms": median(samples) * 1000.0,
        # A tail is where bursts land, so it is taken per round and not
        # pooled. Rounds of a read-only workload repeat the same work, and
        # the cleanest one is the measurement; rounds of a workload that
        # writes cost more one after the other, so there the median round
        # stands for the run.
        "latency_p95_ms": (median if workload.writes else min)(
            percentile(sorted(r), 95.0) for r in workload.round_lat
        ) * 1000.0,
        "cpu_ms_per_op": median(cpu / statements for statements, _busy, cpu in rounds) * 1000.0,
        "stored_bytes_per_user_byte": workload.stored_ratio,
        "peak_rss_mb": workload.peak_rss_mb(),
    }


def measure(workloads: list[Any], rounds: int) -> dict[str, dict[str, float]]:
    """Set every system up, cycle the rounds across them, check, tear down."""
    setup_times: dict[str, list[float]] = {}
    results = {}
    try:
        for workload in workloads:
            times = setup_times[workload.name] = []
            for attempt in range(SETUP_REPEATS):
                if attempt:
                    workload.teardown()
                times.append(workload.setup())
        for round_no in range(1, rounds + 1):
            for workload in workloads:
                workload.run_round(round_no)
        for workload in workloads:
            results[workload.name] = end_to_end(workload, setup_times[workload.name])
            workload.durability_check()
    finally:
        for workload in workloads:
            workload.teardown()
    return results


def first_round_ops_s(workload: Any) -> float:
    """Throughput of the counted first round: the same ops traced and untraced."""
    statements, busy_s, _cpu_s = workload.round_stats[0]
    return statements / busy_s


def measure_traced(make: Any, out_dir: str, untraced_ops_s: float | None, ran: list[Any]) -> dict[str, float]:
    """One first round on a fresh traced system -> per-layer metrics.

    ``untraced_ops_s`` is the first-round throughput tracing is charged
    against; when the caller has none, the same round is first run on an
    untraced system. Every system driven is appended to ``ran``.
    """
    from layers import per_layer_metrics, trace_document

    if untraced_ops_s is None:
        reference = make()
        ran.append(reference)
        reference.setup()
        try:
            reference.run_round(1)
        finally:
            reference.teardown()
        untraced_ops_s = first_round_ops_s(reference)
    workload = make(trace=True)
    ran.append(workload)
    workload.setup()
    try:
        workload.trace_begin()
        before = workload.counters()
        workload.run_round(1)
        after = workload.counters()
        spans = workload.trace_spans()
    finally:
        workload.teardown()
    counters = {name: after[name] - before.get(name, 0.0) for name in after}
    latencies = workload.statement_latencies()
    ops = workload.statements
    metrics, self_ms = per_layer_metrics(
        spans, counters, ops, latencies, first_round_ops_s(workload), untraced_ops_s
    )
    mean_op_ms = sum(seconds for _cls, seconds in latencies) / len(latencies) * 1000.0
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload.name}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(trace_document(workload.name, workload.seed, ops, mean_op_ms, self_ms, spans), f)
    share = sum(self_ms.values()) / mean_op_ms
    print(f"# {workload.name}: traced {ops} ops, mean op {mean_op_ms:.3f} ms; per-layer self times sum to "
          f"{sum(self_ms.values()):.3f} ms ({share:.0%}); {len(spans)} spans -> {os.path.relpath(path)}")
    for layer, value in sorted(self_ms.items(), key=lambda item: -item[1]):
        print(f"#   self {layer:<18} {value:9.3f} ms  {value / mean_op_ms:6.1%}")
    if not 0.85 <= share <= 1.15:
        print(f"# WARNING {workload.name}: per-layer self times are {share:.0%} of the mean op latency")
    return metrics


def report(name: str, metrics: dict[str, float], specs: list[dict]) -> dict[str, dict]:
    """Print one workload's metrics; returns them in the contract's shape."""
    shaped = {}
    for spec in specs:
        value = metrics[spec["name"]]
        print(f"{name:<18} {spec['name']:<42} {value:>14.4f} {spec['unit']}")
        shaped[spec["name"]] = {"value": value, "unit": spec["unit"]}
    return shaped


def resize_warnings(workload: Any) -> None:
    """Say so when the fixed-size parts of a workload no longer fit the run."""
    if workload.rounds < ROUNDS:
        return
    seconds, first_round_s = workload.seconds, workload.round_stats[0][1]
    if workload.busy_s < 0.6 * seconds or len(workload.lat) < RESIZE_SAMPLES:
        print(f"# WARNING resize {workload.name}: {workload.busy_s:.1f} s measured of {seconds:.0f} s asked, "
              f"{len(workload.lat)} latency samples (want >= {RESIZE_SAMPLES}); re-calibrate its rate "
              "(workloads.SCALES) or run_seconds in a benchmark-only change")
    elif first_round_s * 2.0 * workload.rounds < seconds:
        print(f"# WARNING resize {workload.name}: the counted first round took {first_round_s:.2f} s, under half "
              "a round; raise its rate (workloads.SCALES) in a benchmark-only change")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="measure this workload alone (contract form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: the program under test is missing ({SRC}/repro); nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    from workloads import WORKLOADS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    names = [args.workload] if args.workload else [w["name"] for w in contract["workloads"]]
    seconds = args.seconds if args.seconds is not None else float(contract["run_seconds"])
    rounds = 1 if args.scale == "smoke" else ROUNDS
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir)

    def make(name: str, trace: bool = False) -> Any:
        return WORKLOADS[name](args.seed, args.scale, workdir, seconds, rounds, trace=trace)

    summary: dict[str, dict] = {}
    ran: list[Any] = []  # every system driven, for the attempted/failed totals
    try:
        first_round: dict[str, float] = {}
        if not (args.workload and args.trace):
            workloads = [make(name) for name in names]
            ran.extend(workloads)
            results = measure(workloads, rounds)
            for workload in workloads:
                first_round[workload.name] = first_round_ops_s(workload)
                summary[workload.name] = report(workload.name, results[workload.name], contract["end_to_end"])
                print(f"# {workload.name}: {workload.statements} ops in {workload.busy_s:.2f} s, "
                      f"{len(workload.lat)} latency samples, {workload.attempted} checked, {workload.failed} failed")
                resize_warnings(workload)
        if args.trace:
            for name in names:
                metrics = measure_traced(functools.partial(make, name), out_dir, first_round.get(name), ran)
                summary.setdefault(name, {}).update(report(name, metrics, contract["per_layer"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(workload.attempted for workload in ran)
    failed = sum(workload.failed for workload in ran)
    for workload in ran:
        for failure in workload.failures:
            print(f"# FAILED {workload.name}: {failure}")

    result: dict[str, Any] = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if args.workload:
        result["metrics"] = summary[args.workload]
    else:
        result["workloads"] = summary
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
