#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload train_sharded --seed 1 \
        --seconds 10 --trace 0

The first call configures and builds the library and the harness into
.bench_build/perfbench (Release, the library's own CMake defaults); later
calls rebuild only what changed. Build output goes to stderr, so the last
line of stdout is the harness's JSON result. Scratch files (shards, the
oplog, checkpoints) live under .bench_build/work and are removed when the
run ends; the traced run's Chrome trace is kept at
.bench_build/traces/<workload>.json.

Exit status: the harness's own (0 on success, 1 when an output check
fails), or 2 when the build fails or the harness does not finish in time.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
WORKLOADS = ("train_sharded", "serve_zipf", "ingest_refine")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the harness; returns its path or None."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(BUILD_ROOT, "work", "%s-%d" % (args.workload,
                                                          os.getpid()))
    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir,
           "--trace-out", os.path.join(trace_dir, args.workload + ".json")]
    try:
        proc = subprocess.Popen(cmd)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
