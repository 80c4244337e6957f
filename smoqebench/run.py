#!/usr/bin/env python3
"""Builds and runs the SMOQE serving benchmark.

    python3 smoqebench/run.py --workload view_hot --seed 1 --seconds 30 --trace 0
    python3 smoqebench/run.py --selftest

Run from the root of a source checkout. The first run configures and builds
the benchmark (and the smoqe library from ../src) into
$CARGO_TARGET_DIR/smoqebench, default .bench_build/smoqebench; later runs
rebuild incrementally. The last line of standard output is the benchmark's
JSON result. Build output goes to standard error.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # a run must end within 180 s, build excluded


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "smoqebench")


def build(target):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            return None
    binary = os.path.join(out, target)
    return binary if os.path.exists(binary) else None


def run(cmd):
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("run.py: timed out after %d s\n" % RUN_TIMEOUT_S)
        return 124


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["view_hot", "tenant_cold"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "smoqebench_selftest" if args.selftest else "smoqe_serving_bench"
    binary = build(target)
    if binary is None:
        return 2
    if args.selftest:
        return run([binary])
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(build_dir(), "work")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir(), "traces", "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
