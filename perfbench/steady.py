#!/usr/bin/env python3
"""Steadiness check: run every workload repeatedly, interleaved.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]

Round r runs every workload of ``BENCHMARK.json`` once, at its
``run_seconds``, with seed ``--first-seed + r``, in turn,
so slow drift of the host falls on every workload alike.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median
and the metric's bound from ``BENCHMARK.json``; ``setup_s`` is not held
to its bound.  It also prints the p50 and p99 discovery times
(reference figures, not metrics), the host reference loop and the
median host probe of every run, and the share of failed operations,
which must be the same in every run.  The last line is a JSON object of
every median, so that two sets of runs can be set side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed_share: dict[str, set[float]] = {w: set() for w in workloads}
    host: dict[str, list[float]] = {w: [] for w in workloads}
    probes: dict[str, list[float]] = {w: [] for w in workloads}
    reference = ("discovery_p50_ms", "discovery_p99_ms")
    refs: dict[str, dict[str, list[float]]] = {w: {n: [] for n in reference} for w in workloads}
    for r in range(args.runs):
        for workload in workloads:
            detail, result = run_once(workload, args.first_seed + r, spec["run_seconds"])
            if not result["correct"]:
                print(f"{workload} seed {args.first_seed + r}: checks failed: "
                      f"{detail['problems']}", file=sys.stderr)
            failed_share[workload].add(result["failed"] / result["attempted"])
            host[workload].extend(detail["host.ref_loop_ms"])
            probes[workload].append(statistics.median(detail["probe_ms"]))
            for name in reference:
                refs[workload][name].append(detail[name])
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"run {r + 1}/{args.runs} {workload}: host.ref_loop_ms="
                  + "/".join(f"{v:.1f}" for v in detail["host.ref_loop_ms"]) + " "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    verdict = 0
    medians: dict[str, dict[str, float]] = {w: {} for w in workloads}
    print(f"{'workload':14} {'metric':26} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        for name, series in values[workload].items():
            median, q1, q3, s = spread(series)
            medians[workload][name] = median
            bound = bounds[name]
            if name == "setup_s":
                mark = "not held"
            elif s <= bound / 3:
                mark = "steady"
            elif s <= bound:
                mark = "within bound"
            else:
                mark = "TOO WIDE"
                verdict = 1
            print(f"{workload:14} {name:26} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{s:7.3f} {bound:6.2f}  {mark}")
        rows = [(name, series, "reference") for name, series in refs[workload].items()]
        rows += [("host.ref_loop_ms", host[workload], "host"),
                 ("host probe_ms, run median", probes[workload], "host")]
        for name, series, mark in rows:
            median, q1, q3, s = spread(series)
            print(f"{workload:14} {name:26} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{s:7.3f} {'-':>6}  {mark}")
        shares = failed_share[workload]
        if len(shares) != 1:
            verdict = 1
        print(f"{workload:14} {'failed share':26} {sorted(shares)}")
    print(json.dumps(medians))
    return verdict


if __name__ == "__main__":
    sys.exit(main())
