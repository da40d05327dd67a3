#!/usr/bin/env python3
"""Builds the serving benchmark from the checkout's sources and runs one workload.

    python3 perfbench/run.py --workload cold-5k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The build goes to .bench_build/perfbench
(configured once, then brought up to date on every run); all build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
--self-test builds and runs the workload guards in workload_test.cc.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(target):
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", target],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD, target)


def run(command):
    with subprocess.Popen(command, cwd=ROOT) as proc:
        def stop(signum, _frame):
            proc.kill()
            proc.wait()
            sys.exit(128 + signum)

        # Never leave the driver running behind a killed wrapper.
        signal.signal(signal.SIGTERM, stop)
        signal.signal(signal.SIGINT, stop)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: no result within {RUN_TIMEOUT_S} s",
                  file=sys.stderr)
            return 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    try:
        if args.self_test:
            return run([build("perfbench_workload_test")])
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        binary = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    work_dir = os.path.join(".bench_build", f"run-{os.getpid()}")
    return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
