#!/usr/bin/env python3
"""Builds and runs the serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn_write --seed 1 --seconds 25 \
        --trace 0

The first call configures and builds perfbench/ (which compiles the topkpkg
library from the checkout's sources) under $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls only
rebuild what changed. After each build the helper tests run once. Build
output goes to standard error, so the last line of standard output is the
benchmark's JSON result. `--smoke` runs a seconds-long version of any
workload.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("cold_start", "churn_write", "churn_read")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(src_dir, build_dir):
    if not os.path.isfile(os.path.join(src_dir, "..", "CMakeLists.txt")):
        fail("no topkpkg sources next to " + src_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", src_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "serving_bench", "perfbench_stats_test"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    test = os.path.join(build_dir, "perfbench_stats_test")
    if subprocess.run([test], stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("helper tests failed")


def main():
    # Turn SIGTERM into SystemExit so cleanup in `finally` blocks runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    src_dir = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    build(src_dir, build_dir)

    # One scratch directory per workload and mode; the binary removes the
    # store when it exits and keeps the trace files of a traced run.
    run_dir = os.path.join(build_dir, "runs",
                           "%s-trace%d" % (args.workload, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [os.path.join(build_dir, "serving_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("serving_bench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # Also reached on SIGTERM (see main): never leave the child behind.
        if proc.poll() is None:
            proc.kill()
            proc.wait()
            shutil.rmtree(os.path.join(run_dir, "world", "store"),
                          ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        # Keep the report for the reader, but print no result line.
        sys.stderr.write(out)
        fail("serving_bench exited with status %d" % proc.returncode)
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
