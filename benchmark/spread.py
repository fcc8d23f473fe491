#!/usr/bin/env python3
"""The acceptance protocol, runnable by hand: the contract command ten times
per workload, each time with another seed, then for every end-to-end metric
the distance between the first and third quartile of its ten values as a
share of their median, held against the metric's bound in BENCHMARK.json.

    python3 benchmark/spread.py [--runs 10] [--first-seed 101] [--workload W]...
        [--save runs.json]

Run it from the repository root. Exits 1 when a spread exceeds its bound or
an op failed."""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--save")
    args = ap.parse_args()

    manifest = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    workloads = args.workload or [w["name"] for w in manifest["workloads"]]
    saved, bad = {}, False
    for w in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.runs):
            cmd = manifest["command"] + [
                "--workload", w,
                "--seed", str(args.first_seed + i),
                "--seconds", str(manifest["run_seconds"]),
                "--trace", "0",
            ]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {args.first_seed + i}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
                bad = True
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w}: run {i + 1}/{args.runs} done", file=sys.stderr)
        saved[w] = values
        print(f"== {w}")
        for name, xs in values.items():
            median = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(median) if median else 0.0
            verdict = "ok" if spread <= bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "TOO WIDE")
            bad |= spread > bounds[name]
            print(f"  {name:<14} median {median:>16.6f}  spread {spread * 100:6.2f} %  "
                  f"bound {bounds[name] * 100:5.1f} %  {verdict}")
    if args.save:
        json.dump(saved, open(args.save, "w"), indent=1)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
