#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):
  python3 perfbench/spread.py [--workloads callgraph,fleet]
      [--seeds 1-10] [--seconds N]

For every workload and metric it prints the median and quartiles of the
per-run values (statistics.quantiles(n=4)), the distance between the
quartiles as a share of the median, and each metric's bound from
BENCHMARK.json, flagging spreads above a third of the bound.  Exits
nonzero if any run fails or reports an incorrect output.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--verbose", action="store_true",
                   help="also print every run's value")
    a = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for s in seeds(a.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(a.seconds),
                                      "--trace", "0"]
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = r.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines else {}
            good = r.returncode == 0 and res.get("correct") is True
            ok = ok and good
            print(f"{w} seed {s}: rc={r.returncode} correct={res.get('correct')}"
                  f" failed={res.get('failed')}/{res.get('attempted')}",
                  flush=True)
            for name, m in res.get("metrics", {}).items():
                values.setdefault(name, []).append(m["value"])
            # The host's speed over the run: the same fixed loop timed at
            # its start and end (not a benchmark metric).
            host = re.search(r"host reference loop: ([0-9.]+) ms at start, "
                             r"([0-9.]+) ms at end", r.stdout)
            if host:
                values.setdefault("(host reference ms)", []).append(
                    (float(host.group(1)) + float(host.group(2))) / 2)
        for name, v in values.items():
            med = statistics.median(v)
            q1 = q3 = med
            if len(v) >= 2:
                q1, _, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            b = bounds.get(name)
            flag = "" if b is None or spread <= b / 3 else "  <-- above bound/3"
            print(f"  {w:10s} {name:28s} median {med:12.6g}  q1 {q1:12.6g}"
                  f"  q3 {q3:12.6g}  spread {spread:7.3f}  bound {b}{flag}")
            if a.verbose:
                print("      " + " ".join(f"{x:.4g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
