#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload callgraph|fleet --seed N \
      --seconds S --trace 0|1

The build lands in .bench_build/ (CMake + Ninja, RelWithDebInfo like the
repository's own default).  Build output goes to stderr, so the last line
on stdout is the benchmark's JSON result.  Exits nonzero, printing no
result, when the build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"


def build():
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    cfg = ["cmake", "-S", HERE, "-B", BUILD,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return None
    if subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    if exe is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
