#!/usr/bin/env python3
"""Checks that a seed fixes the counts the benchmark's one-session
workloads must repeat exactly: the request-stream hash, WAL bytes and
records per write, and disk bytes per object, all taken over the fixed
prefix every run sends before timing starts.

Run from the repository root:

    python3 perfbench/check_determinism.py [--seed N] [--seconds S]

Exits 1 and prints both lines when two runs of one seed disagree.
"""
import argparse
import re
import subprocess
import sys

WORKLOADS = ("browse", "page")
PREFIX = re.compile(r"^determinism prefix: (.*)$", re.MULTILINE)


def prefix_line(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    match = PREFIX.search(out)
    if match is None:
        sys.exit("no determinism line in the %s run" % workload)
    return match.group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=1)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first = prefix_line(workload, args.seed, args.seconds)
        second = prefix_line(workload, args.seed, args.seconds)
        same = first == second
        ok = ok and same
        print("%s seed %d: %s\n  %s" % (workload, args.seed,
                                        "identical" if same else "DIFFERENT",
                                        first))
        if not same:
            print("  " + second)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
