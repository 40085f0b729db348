#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/sweep.py --workload warm_admit --seeds 1-10 [--trace 1]
        [--seconds N] [--out summary.json]

Run from the repository root.  The benchmark command and the default
--seconds come from BENCHMARK.json.  For every metric the summary gives
the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    results = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        started = time.time()
        proc = subprocess.run(cmd, capture_output=True, text=True)
        wall = time.time() - started
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: incorrect run\n{proc.stdout}")
        result["wall_s"] = wall
        results.append(result)
        shown = " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()
        )
        print(f"seed {seed} wall {wall:.1f}s {shown}", flush=True)

    summary = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "runs": len(results),
        "metrics": {},
    }
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        summary["metrics"][name] = dict(unit=metric["unit"], **summarise(values))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, s in summary["metrics"].items():
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if s["spread"] < bound / 3 else "WIDE"
            verdict = f"bound {bound} -> {verdict}"
        print(f"{name:34s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
              f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {verdict}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
