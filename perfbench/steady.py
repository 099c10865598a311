#!/usr/bin/env python3
"""Repeats the benchmark to show how steady its end-to-end metrics are.

    python3 perfbench/steady.py [--runs 10] [--seconds S] [--first-seed 1]
                                [--workloads w1,w2]

Runs each workload once per seed (first-seed, first-seed + 1, ...) with
--trace 0 and prints, per workload and metric, the median, the quartiles
(statistics.quantiles, n=4), the spread (Q3 - Q1) / median against a third
of the metric's bound in BENCHMARK.json, and the number of modes found in
each run's tick-time histogram.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def modes(counts):
    """Peaks of a tick-time histogram: local maxima of the 3-bin moving
    average holding at least a tenth of the highest, each separated from
    the previous one by a valley below 0.6 of the lower of the two. The end
    bins, which collect the outliers beyond p1 and p99, are left out."""
    inner = counts[1:-1]
    smooth = [sum(inner[max(0, i - 1):i + 2]) / len(inner[max(0, i - 1):i + 2])
              for i in range(len(inner))]
    top = max(smooth, default=0)
    peaks = []
    for i, c in enumerate(smooth):
        left = smooth[i - 1] if i > 0 else -1
        right = smooth[i + 1] if i + 1 < len(smooth) else -1
        if c < left or c <= right or c < 0.1 * top:
            continue
        if peaks and min(smooth[peaks[-1]:i + 1]) > 0.6 * min(c, smooth[peaks[-1]]):
            if c > smooth[peaks[-1]]:
                peaks[-1] = i
        else:
            peaks.append(i)
    return max(1, len(peaks))


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True)
    lines = proc.stdout.splitlines()
    hist = [l for l in lines if l.startswith("tick_ms histogram:")]
    counts = [int(x) for x in hist[0].split()[4:]] if hist else [1]
    return json.loads(lines[-1]), modes(counts)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values, mode_counts, failed = {}, [], 0
        for i in range(args.runs):
            result, n_modes = run(workload, args.first_seed + i, args.seconds)
            mode_counts.append(n_modes)
            failed += 0 if result["correct"] and result["failed"] == 0 else 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n### {workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {args.seconds:g} s each")
        print(f"runs not correct or with failures: {failed}; tick histogram "
              f"modes per run: {mode_counts}\n")
        print("| metric | median | Q1 | Q3 | spread | bound/3 | steady |")
        print("|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            limit = bounds.get(name, 0) / 3
            ok = "n/a (set-up)" if name == "setup_s" else (
                "yes" if spread <= limit else "NO")
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
                  f"{limit:.4f} | {ok} |")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
