#!/usr/bin/env python3
"""Is the benchmark steady enough to carry its own bounds?

    python benchmarks/e2e/noise.py --sets 2 --runs 10

Runs the contract command (``run.py --workload W --seed N --seconds S
--trace 0``) ``runs`` times per workload and set, the sets alternating run
by run so that both see the same stretch of machine time. For every
workload x end-to-end metric it prints each set's median, how much worse
the later set's median is than the first's, the spread of each set
(interquartile range over median, as ``statistics.quantiles(values, n=4)``
gives it), and the bound from ``BENCHMARK.json``. It exits non-zero when a
later median is worse than the first by more than the bound, or a spread
exceeds its bound; a spread above a third of the bound is flagged ``wide``.

Run k of every set has seed k, because that is how the benchmark is judged
when it is accepted: ten runs, ten seeds, spread within the bound. A seed
only chooses what is asked, never what is stored (``workloads.DATA_SEED``),
so ``stored_bytes_per_user_byte`` must read the same on every run of a
workload; any difference is reported as ``nondeterministic``.

Writes ``benchmarks/e2e/out/noise.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median, quantiles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        contract = json.load(f)
    names = [w["name"] for w in contract["workloads"]]
    specs = contract["end_to_end"]
    seconds = contract["run_seconds"]

    # values[workload][metric][set] = [run 1, run 2, ...]
    values = {w: {m["name"]: [[] for _ in range(args.sets)] for m in specs} for w in names}
    failed = 0
    started = time.time()
    for run in range(args.runs):
        for which in range(args.sets):
            for workload in names:
                result = run_once(workload, run + 1, seconds)
                failed += result["failed"]
                for metric, sample in result["metrics"].items():
                    values[workload][metric][which].append(sample["value"])
        print(f"# run {run + 1}/{args.runs} of {args.sets} set(s) done, {time.time() - started:.0f} s",
              file=sys.stderr)

    problems: list[str] = []
    rows = []
    print(f"{'workload':<18} {'metric':<27} " + " ".join(f"{'median ' + str(i + 1):>12}" for i in range(args.sets))
          + f" {'worse by':>9} {'spread':>14} {'bound':>6}")
    for workload in names:
        for spec in specs:
            metric, bound = spec["name"], spec["bound"]
            sets = values[workload][metric]
            medians = [median(s) for s in sets]
            spreads = [spread(s) if len(s) >= 2 else 0.0 for s in sets]
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = max((sign * (m - medians[0]) / medians[0] for m in medians[1:]), default=0.0)
            flags = []
            if worse > bound:
                flags.append("DISAGREE")
            if max(spreads) > bound:
                flags.append("NOISY")
            elif max(spreads) > bound / 3.0:
                flags.append("wide")
            if metric == "stored_bytes_per_user_byte" and len({v for s in sets for v in s}) > 1:
                flags.append("nondeterministic")
            for flag in flags:
                if flag != "wide":
                    problems.append(f"{workload} {metric}: {flag}")
            print(f"{workload:<18} {metric:<27} " + " ".join(f"{m:12.4f}" for m in medians)
                  + f" {worse:>+9.1%} " + "/".join(f"{s:.1%}" for s in spreads).rjust(14)
                  + f" {bound:>6.0%} {' '.join(flags)}")
            rows.append({"workload": workload, "metric": metric, "unit": spec["unit"], "bound": bound,
                         "medians": medians, "later_worse_by": worse, "spreads": spreads,
                         "flags": flags, "values": sets})
    if failed:
        problems.append(f"{failed} failed operations")

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "noise.json"), "w", encoding="utf-8") as f:
        json.dump({
            "sets": args.sets, "runs": args.runs, "run_seconds": seconds,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.platform(), "wall_seconds": round(time.time() - started),
            "failed_operations": failed, "problems": problems, "rows": rows,
        }, f, indent=1)
    for problem in problems:
        print(f"# PROBLEM {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
