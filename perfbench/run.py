#!/usr/bin/env python3
"""Closed-loop benchmark of kalmancast.

    python3 perfbench/run.py --workload fleet_quiet|fleet_chatty|split_loopback \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. Builds the program and the benchmark from
source under .bench_build/perfbench (build output goes to stderr), runs one
workload in its own process, and passes its output through: the last line
of standard output is one JSON object with "correct", "attempted", "failed"
and "metrics". Exits non-zero, printing no result, when the build or the
run fails. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_quiet", "fleet_chatty", "split_loopback")
RUN_TIMEOUT_S = 170


def build(target):
    # Compilers write temporaries to TMPDIR; keep them inside the checkout.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", BUILD, "--target", target, "-j", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            sys.exit(f"perfbench: {' '.join(cmd)} failed")
    return os.path.join(BUILD, target)


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("unexpected keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError(f"metric {name} malformed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        return subprocess.run([build("kcbench_selftest")], timeout=RUN_TIMEOUT_S).returncode
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("kcbench")
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: {args.workload} exited with {proc.returncode}")
    try:
        check_result(lines[-1])
    except ValueError as err:  # json.JSONDecodeError is a ValueError.
        sys.stderr.write(proc.stdout)
        sys.exit(f"perfbench: malformed result line: {err}")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
