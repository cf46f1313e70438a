#!/usr/bin/env python3
"""Builds and runs the end-to-end coordination benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload social --seed 1 --seconds 10 --trace 0

The first call configures and compiles perfbench/ (which compiles the
library from src/) into this checkout's build directory,
perfbench-<hash of the checkout's path> under $CARGO_TARGET_DIR when set,
else under .bench_build.  Later calls from the same checkout reuse the
build; checkouts that share a CARGO_TARGET_DIR each build their own
sources.  All scratch files (the durable stores, the span dump) stay
inside the build directory.

The last line of standard output is the benchmark's JSON result.  The
exit code is 0 only when the benchmark ran and printed that result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("social", "dense", "durable")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    """This checkout's build directory.

    It is keyed by the checkout's path, so two checkouts that share one
    CARGO_TARGET_DIR never build, or run, each other's sources.
    """
    configured = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(configured):
        configured = os.path.join(ROOT, configured)
    key = hashlib.sha256(os.path.realpath(ROOT).encode()).hexdigest()[:16]
    return os.path.join(configured, "perfbench-" + key)


def configure(out_dir):
    """Configures the build tree of perfbench/ once."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(out_dir):
    """Configures and builds the benchmark; returns the binary."""
    configure(out_dir)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", out_dir, "--target", "coordbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out_dir, "coordbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="stream size multiplier (tests use tiny scales)")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "api", "session.h")):
        log("perfbench: no library sources under %s/src; run from a "
            "complete source checkout" % ROOT)
        return 2

    out_dir = build_dir()
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log("perfbench: build failed: %s" % error)
        return 2

    work_dir = os.path.join(out_dir, "run-%s-%d" % (args.workload, os.getpid()))
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scale", str(args.scale),
        "--work-dir", work_dir,
        "--trace-out", os.path.join(out_dir, "spans-%s.tsv" % args.workload),
    ]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    output = result.stdout.decode("utf-8", "replace")
    sys.stdout.write(output)
    sys.stdout.flush()
    if result.returncode != 0:
        log("perfbench: benchmark exited with code %d" % result.returncode)
        return result.returncode
    lines = output.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: the benchmark printed no result line")
        return 4
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench: malformed result line")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
