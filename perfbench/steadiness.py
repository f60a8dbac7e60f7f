#!/usr/bin/env python3
"""Measure the run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads sweep,campaign,verifier]
        [--seeds 10] [--first-seed 1] [--out perfbench/steadiness.json]

Runs perfbench/run.py once per (workload, seed), serially, with the
run_seconds of BENCHMARK.json, and reports per workload and metric the
median, the quartiles (statistics.quantiles(values, n=4)) and the
spread (Q3 - Q1) / median, next to a third of the metric's bound. The
JSON written to --out is the evidence the bounds were set from.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    elapsed = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%s seed %d, exit %d):\n%s\n%s" % (
            workload, seed, proc.returncode, proc.stdout[-2000:],
            proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("incorrect result (%s seed %d): %s" % (workload, seed, lines[-1]))
    return result, elapsed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    out = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}

    for workload in names:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        elapsed = []
        for seed in seeds:
            result, secs = run_once(workload, seed, bench["run_seconds"])
            elapsed.append(round(secs, 2))
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": m["bound"],
                               "values": v}
            flag = "" if spread < m["bound"] / 3 else "  <-- over a third of bound"
            print("%-9s %-17s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f "
                  "(bound/3 %.4f)%s" % (workload, m["name"], med, q1, q3, spread,
                                         m["bound"] / 3, flag))
        print("%-9s run seconds %s" % (workload, elapsed))
        out["workloads"][workload] = {"run_elapsed_s": elapsed, "metrics": rows}
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
