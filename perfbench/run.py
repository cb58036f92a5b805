#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

  python3 perfbench/run.py --workload analytics --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds the
program's libraries and the driver into .bench_build/ (a few minutes); later
calls reuse the build. The driver's last line of stdout is the JSON result;
build logs go to stderr. Exits non-zero, without a result line, when the
sources are missing, the build fails, or the driver fails or overruns.
"""

import argparse
import fcntl
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bin" / "perfbench"
WORKLOADS = ("analytics", "adhoc_compile", "serve_prepared")
# Each run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the driver; returns False on any failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("perfbench: program sources not found under src/",
              file=sys.stderr)
        return False
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Concurrent invocations in one checkout share the build directory.
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                print("perfbench: build step failed: " + " ".join(cmd),
                      file=sys.stderr)
                return False
    return BINARY.is_file()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up, for the self-test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 1
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
