#!/usr/bin/env python3
"""Builds the W5 benchmark from source, then runs it.

    python3 w5bench/run.py --workload tcp_small_mix --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to .bench_build/w5bench (a
Release build of ../src plus the benchmark; the first run compiles it).
Every argument is passed to the benchmark binary; see README.md. The
binary's report and its final JSON line go to stdout, build output to
stderr. Exits non-zero, printing no result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "w5bench")


def build():
    """Configures once, then builds incrementally; returns True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode == 0:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD_DIR, "--target", "w5bench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        print("w5bench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, "w5bench")
    state_dir = os.path.join(BUILD_ROOT, "w5bench-state")
    os.makedirs(state_dir, exist_ok=True)
    args = sys.argv[1:]
    spans = "w5bench-spans.csv"
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        spans = "w5bench-spans-%s.csv" % args[args.index("--workload") + 1]
    command = [binary, *args, "--state-dir", state_dir,
               "--spans-out", os.path.join(BUILD_ROOT, spans)]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
