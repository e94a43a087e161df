#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's median and
quartile spread (IQR as a share of the median) against its bound.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0]

Run from the repository root; the command, run length and bounds come from
BENCHMARK.json.  A spread above a third of its bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            # The summary line states the unscaled wall time, so the
            # reference scaling's effect on the spread shows.
            summary = next((l.split() for l in lines if l.startswith("workload ")), [])
            if "raw" in summary:
                raw = float(summary[summary.index("raw") + 2])
                values.setdefault("wall_s (raw, unscaled)", []).append(raw)
            if not result["correct"] or result["failed"]:
                ok = False
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(args.seeds)} seeds)")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = f"  <-- above a third of its bound {bound}"
            print(f"  {name:28s} median {med:14.6g}  spread {spread:7.4f}{flag}")
            print("      " + " ".join(f"{x:.4g}" for x in xs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
