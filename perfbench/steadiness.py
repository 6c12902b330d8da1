#!/usr/bin/env python3
"""Steadiness report for the benchmark: run each workload on several seeds
and give, per end-to-end metric, the median and quartiles of the per-run
values and their spread (interquartile distance as a share of the
median) against the metric's bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 [--workloads replay-1m,...]
        [--first-seed 1] [--trace 0] [--bin path/to/perfbench]

Without --bin it runs the command BENCHMARK.json names. Spreads under a
third of the bound are marked `ok`; `setup_s` is reported but, as its
bound is about drift between sets of runs, not judged on spread.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", default="")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = [args.bin] if args.bin else bench["command"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]

    for name in names:
        values = {m["name"]: [] for m in metrics}
        walls = []
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = command + ["--workload", name, "--seed", str(seed),
                             "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            start = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            walls.append(time.time() - start)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if out.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: FAILED (exit {out.returncode})")
                print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
                continue
            for m, v in result["metrics"].items():
                values[m].append(v["value"])
        print(f"\n{name}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                print(f"  {m['name']:<30} (too few runs)")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None and m["name"] != "setup_s":
                verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {m['name']:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.3f} "
                  f"{bound if bound is not None else '':>6} {verdict}")


if __name__ == "__main__":
    main()
