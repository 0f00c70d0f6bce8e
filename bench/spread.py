"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py --seeds 1-10 [--write]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, for
its ``run_seconds``, interleaving workloads so that slow phases of a
shared host spread over all of them, prints each run's report
(``--seeds 1`` is the one command for all workloads) and then
for each metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread: the distance between the quartiles as a share of the
median. It exits non-zero as soon as a run fails a check.
``--write`` records the table in bench/results/baseline.json, which run.py
prints next to each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BASELINE, BENCH, ROOT, load_benchmark, source_lines


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main() -> int:
    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    collected: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    durations: dict[str, list[float]] = {w: [] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=200, cwd=ROOT,
            )
            durations[workload].append(time.perf_counter() - started)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                return 1
            *report, last = done.stdout.strip().splitlines()
            print("\n".join(report), flush=True)
            for name, metric in json.loads(last)["metrics"].items():
                collected[workload].setdefault(name, []).append(metric["value"])

    if len(seeds) < 2:
        return 0
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    table = {}
    for workload in workloads:
        table[workload] = {name: summarize(values) for name, values in collected[workload].items()}
        print(f"{workload} (runs took {min(durations[workload]):.0f}-{max(durations[workload]):.0f} s)")
        for name, row in table[workload].items():
            print(
                f"  {name:14s} median {row['median']:.5g}  q1 {row['q1']:.5g}  q3 {row['q3']:.5g}  "
                f"spread {100 * row['spread']:.1f} % (bound {100 * bounds[name]:.0f} %)"
            )
    if args.write:
        record = {
            "what": "run-to-run spread of each end-to-end metric over one run per seed",
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                       f"{platform.python_implementation()} {platform.python_version()}, shared host",
            "seeds": seeds,
            "run_seconds": seconds,
            "source_lines": source_lines(),
            "workloads": table,
        }
        BASELINE.parent.mkdir(exist_ok=True)
        with open(BASELINE, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
