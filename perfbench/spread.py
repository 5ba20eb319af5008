#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload dds_read --runs 10 [--first-seed N]
        [--seconds S] [--trace 0|1] [--record FILE --label TEXT]

Run from the repository root. For every metric it prints the median of
the runs, the quartile spread (Q3 - Q1, from statistics.quantiles with
n=4) as a share of the median, and that spread against the metric's
bound in BENCHMARK.json. Seeds are 1000 + i, so a second invocation with
--first-seed gives an independent set. --record appends the summary
(medians, spreads, and every run's result line and SIM values, which hold
the simulated per-layer counters such as the CE's per-target job counts)
as one JSON line. A run that
fails an output check is reported with its CHECK FAILED lines, its
metrics still count, and the script exits 1 at the end.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record", default=None,
                        help="append the summary as one JSON line to this "
                             "file (e.g. perfbench/trajectory.jsonl)")
    parser.add_argument("--label", default="",
                        help="what was measured, stored with --record")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    runs = []
    failed_seeds = []
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds", str(seconds),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(proc.stdout)
            sys.exit("run with seed %d printed no result" % seed)
        if proc.returncode != 0 or not result["correct"]:
            failed_seeds.append(seed)
            for line in lines:
                if line.startswith("CHECK FAILED"):
                    print("seed %d: %s" % (seed, line))
        sim = next((json.loads(line[4:]) for line in lines
                    if line.startswith("SIM ")), {})
        runs.append({"seed": seed, "result": result, "sim": sim})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds or args.trace)), flush=True)

    print("\n%-30s %14s %10s %8s" % ("metric", "median", "iqr/med", "bound"))
    summary = {"label": args.label, "workload": args.workload,
               "trace": args.trace, "run_seconds": seconds,
               "seeds": [args.first_seed, args.first_seed + args.runs - 1],
               "failed_seeds": failed_seeds, "median": {},
               "iqr_over_median": {}, "runs": runs}
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        summary["median"][name] = med
        summary["iqr_over_median"][name] = spread
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  > bound/3"
        print("%-30s %14.6g %10.4f %8s%s" % (name, med, spread,
                                             bound if bound else "-", flag))
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(summary) + "\n")
    if failed_seeds:
        print("\nruns that failed an output check: seeds %s" % failed_seeds)
        sys.exit(1)


if __name__ == "__main__":
    main()
