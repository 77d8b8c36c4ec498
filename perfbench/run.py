#!/usr/bin/env python3
"""Builds caddb's wire benchmark from this checkout and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload browse|edit|page --seed N \
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (CMake, RelWithDebInfo)
into .bench_build/perfbench; later runs only check the build is current.
Build output goes to stderr. The benchmark's own report goes to stdout and
its last line is the JSON result. Databases live under
.bench_build/perfbench-data and are deleted at the end of each run; a traced
run writes its spans to .bench_build/perfbench-out.
"""
import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("browse", "edit", "page")
# A run measures for --seconds plus at most ~40 s of set-up and checks.
RUN_TIMEOUT_S = 170


def source_id(root):
    """The git commit when the checkout has one, else a digest of src/."""
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root):
    """Configures once and builds; returns the benchmark binary's path."""
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"),
                            "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "caddb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit("perfbench: run from the root of a caddb checkout "
                 "(src/ not found)")
    try:
        binary = build(root)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed: %s" % e)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--data-dir", os.path.join(".bench_build", "perfbench-data"),
               "--out-dir", os.path.join(".bench_build", "perfbench-out"),
               "--git-sha", source_id(root)]
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
