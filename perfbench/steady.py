#!/usr/bin/env python3
"""Steadiness record of the benchmark.

Runs every workload of BENCHMARK.json with seeds 1-10 for run_seconds,
twice over (two sets of the same code, one after the other), then one
traced run per workload, and writes perfbench/STEADINESS.json:

- per set, workload and end-to-end metric: the median, the quartiles and
  the spread (q3 - q1) / median of the ten values;
- per workload and metric: the second set's median over the first's;
- per workload: the tracing overhead (untraced / traced throughput - 1);
- nproc and the longest run's wall time.

The benchmark is steady when every spread is below a third of its
metric's bound and no second median is worse than the first by more
than the bound. Run from the repository root; the first run builds the
benchmark:

    CARGO_TARGET_DIR=.bench_build python3 perfbench/steady.py
"""

import json
import os
import statistics
import subprocess
import sys
import time

SEEDS = list(range(1, 11))
SETS = 2
RECORD = "perfbench/STEADINESS.json"


def run(command, workload, seed, seconds, trace):
    """One benchmark run; returns its metric values and wall time."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def summarize(values, bound):
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "steady": spread < bound / 3, "values": values}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    sets, longest = [], 0.0
    for k in range(SETS):
        measured = {}
        for workload in workloads:
            runs = []
            for seed in SEEDS:
                values, wall = run(command, workload, seed, seconds, 0)
                longest = max(longest, wall)
                runs.append(values)
                print(f"set {k + 1} {workload} seed {seed}: " + " ".join(
                    f"{n}={values[n]:.4g}" for n in metrics) + f" wall={wall:.1f}s",
                    flush=True)
            measured[workload] = {
                name: summarize([r[name] for r in runs], m["bound"])
                for name, m in metrics.items()}
            for name, s in measured[workload].items():
                print(f"  {workload} {name}: median {s['median']:.4g} "
                      f"spread {s['spread']:.3f} {'ok' if s['steady'] else 'WIDE'}",
                      flush=True)
        sets.append(measured)

    agreement, steady = {}, True
    for workload in workloads:
        agreement[workload] = {}
        for name, m in metrics.items():
            first = sets[0][workload][name]["median"]
            ratio = sets[-1][workload][name]["median"] / first
            worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
            ok = worse <= m["bound"]
            steady &= ok and all(s[workload][name]["steady"] for s in sets)
            agreement[workload][name] = {"second_over_first": ratio, "within_bound": ok}
            print(f"{workload} {name}: second / first median {ratio:.3f} "
                  f"{'ok' if ok else 'WORSE'}", flush=True)

    overhead = {}
    for workload in workloads:
        values, wall = run(command, workload, SEEDS[0], seconds, 1)
        overhead[workload] = values["trace.overhead"]
        print(f"{workload} trace.overhead {overhead[workload]:.4f} "
              f"traced wall {wall:.1f}s", flush=True)

    record = {"nproc": os.cpu_count(), "seconds": seconds, "seeds": SEEDS,
              "longest_run_s": longest, "steady": steady, "sets": sets,
              "agreement": agreement, "trace_overhead": overhead}
    with open(RECORD, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print("steady" if steady else "not steady: see the WIDE and WORSE lines")


if __name__ == "__main__":
    main()
