#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root):
  python3 perfbench/selftest.py [--seed N] [--seconds S]

For every workload in BENCHMARK.json it checks that
  - a run with --trace 0 reports exactly the end-to-end metrics and a run
    with --trace 1 exactly the per-layer metrics, each with the declared
    unit, every value a finite number and no output wrong;
  - two traced runs with the same seed repeat the exact counts bit for bit;
  - the command fails, printing no result, in a directory that holds only
    BENCHMARK.json and the benchmark's own files.
Exits nonzero on the first failed check.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT = ["vm.instructions", "runtime.probes_per_call", "core.listing_bytes",
         "store.runs", "store.inputs_per_query"]


def run(bench, workload, seed, seconds, trace, cwd=ROOT):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(r):
    lines = r.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=15)
    a = p.parse_args()

    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for w in (x["name"] for x in bench["workloads"]):
        exact = []
        for trace in (0, 1, 1):
            r = run(bench, w, a.seed, a.seconds, trace)
            res = result(r)
            check(r.returncode == 0 and res is not None,
                  f"{w} trace={trace}: exit 0 with a result line")
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{w} trace={trace}: result keys")
            check(res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1,
                  f"{w} trace={trace}: every output correct "
                  f"({res['attempted']} checked)")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == declared[trace],
                  f"{w} trace={trace}: metrics are exactly the declared ones")
            check(all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in res["metrics"].values()),
                  f"{w} trace={trace}: every value a finite number")
            if trace:
                exact.append({k: res["metrics"][k]["value"] for k in EXACT})
        check(exact[0] == exact[1],
              f"{w}: exact counts repeat bit for bit ({exact[0]})")

    # Without the library sources the build, and so the command, must fail.
    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="bare-") as d:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
        for path in bench["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(d, path))
        w = bench["workloads"][0]["name"]
        r = run(bench, w, a.seed, a.seconds, 0, cwd=d)
        check(r.returncode != 0 and result(r) is None,
              "bare directory: nonzero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
