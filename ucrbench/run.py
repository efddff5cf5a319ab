#!/usr/bin/env python3
"""Builds the ucr benchmark from this checkout and runs one workload.

    python3 ucrbench/run.py --workload read_hot --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first run configures and builds
`ucrbench` (Release) under .bench_build/; later runs rebuild only what
changed. The binary's report goes to stdout; its last line is the
result object {"correct", "attempted", "failed", "metrics"}. The exit
code is the binary's: 0 only when every operation and output check
passed. A failed build exits 2 without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "ucrbench")
WORK_DIR = os.path.join(BUILD_ROOT, "ucrbench-work")
WORKLOADS = ("read_hot", "mixed_uniform", "scale_write")


def fail(message):
    print("ucrbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "ucrbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(3, (os.cpu_count() or 2) - 1)))
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "ucrbench",
                      "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)
    return os.path.join(BUILD_DIR, "ucrbench")


def revision():
    """The git commit of the checkout, or "unknown" outside git."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return "git:" + out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    binary = build()
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--revision", revision()]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
