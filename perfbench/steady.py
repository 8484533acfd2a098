#!/usr/bin/env python3
"""Steadiness check: two sets of runs per workload, compared.

Usage, from the root of a checkout:
  python3 perfbench/steady.py

Each set runs every workload in BENCHMARK.json ten times, each run with
its own seed (set 1 uses seeds 1-10, set 2 seeds 11-20). For every end-to-end metric it prints, per set, the median and
quartiles (statistics.quantiles, n=4) and the spread (Q3-Q1)/median, and
then the move of the second set's median in the metric's worse direction;
the metrics the runs report as unbounded follow, for reference only.
Both are compared with the metric's bound from BENCHMARK.json: a spread
above the bound, or a move worse than the bound, is flagged. It also checks that the share
of failed operations is identical across all runs. Raw results go to
.bench_build/perfbench-steady.json. Exits 1 when anything is flagged.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10  # per set


def run_once(workload, seed, seconds):
    started = time.time()
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {result.returncode}")
    record = json.loads(lines[-1])
    for line in lines:
        if line.startswith("unbounded: "):
            record["unbounded"] = json.loads(line[len("unbounded: "):])
    record["wall_s"] = time.time() - started
    return record


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"]

    raw = {}
    flagged = []
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for s in range(2):
            seeds = range(1 + s * RUNS, 1 + (s + 1) * RUNS)
            sets.append([run_once(workload, seed, bench["run_seconds"])
                         for seed in seeds])
            walls = [r["wall_s"] for r in sets[-1]]
            print(f"{workload} set {s + 1}: seeds {seeds.start}..{seeds.stop - 1}, "
                  f"wall per run {min(walls):.1f}-{max(walls):.1f} s", flush=True)
        raw[workload] = sets
        shares = {r["failed"] / r["attempted"] for runs in sets for r in runs}
        if len(shares) != 1:
            flagged.append(f"{workload}: failed share differs across runs: {shares}")
        if not all(r["correct"] for runs in sets for r in runs):
            flagged.append(f"{workload}: a run reported correct=false")
        print(f"{'metric':34s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s} {'move':>7s}")
        # No direction is known for these: their move is the plain
        # relative change.
        unbounded = [{"name": name, "better": None}
                     for name in sorted(sets[0][0].get("unbounded", {}))]
        for metric in metrics + unbounded:
            name = metric["name"]
            bound = metric.get("bound")
            medians = []
            for s, runs in enumerate(sets):
                values = [(r["metrics"].get(name) or r["unbounded"][name])["value"]
                          for r in runs]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                move = ""
                if s == 1 and medians[0]:
                    worse = (median - medians[0]) / medians[0]
                    if metric["better"] == "higher":
                        worse = -worse
                    move = f"{worse:+7.3f}"
                    if bound is not None and worse > bound:
                        flagged.append(f"{workload} {name}: median moved {worse:+.3f} > {bound}")
                mark = ""
                if bound is not None and spread > bound:
                    mark = " !"
                    flagged.append(f"{workload} {name} set {s + 1}: spread {spread:.3f} > {bound}")
                elif bound is not None and spread > bound / 3:
                    mark = " ~"
                print(f"{name:34s} {s + 1:3d} {median:12.5g} {q1:12.5g} {q3:12.5g} "
                      f"{spread:7.3f} {bound if bound is not None else '':>6} {move:>7s}{mark}")
        sys.stdout.flush()
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_build", "perfbench-steady.json"), "w") as f:
        json.dump(raw, f)
    for line in flagged:
        print("FLAG:", line)
    print("steady" if not flagged else "not steady")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
