"""Steadiness check: run each workload k times, one seed each, and print
per metric the median and the spread (interquartile range over median)
against the bound in BENCHMARK.json; with ``--sets 2`` or more, also how
much worse each later set's median is than the first set's.

    python3 perfbench/steady.py --runs 10 [--sets 2] [--workloads browse,poll] [--seed0 1]

A spread above a third of its bound is flagged, and so is a later set
whose median is worse than the first's by more than the bound: a gate
whose runs spread as wide as its bound cannot tell a regression from
noise.  Set ``k`` uses seeds ``seed0 + k * runs`` onwards.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_set(bench: Dict, workload: str, seeds: List[int], seconds: int):
    """Run the benchmark once per seed; per-metric values, the set of
    failed shares, and whether every run was correct (None on a crash)."""
    values: Dict[str, List[float]] = {}
    shares, correct = set(), True
    for seed in seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return None
        result = json.loads(lines[-1])
        shares.add(result["failed"] / result["attempted"])
        summary = json.loads(lines[-2]) if len(lines) > 1 else {}
        print(f"{workload} seed {seed}: correct={result['correct']}"
              f" attempted={result['attempted']} failed={result['failed']}"
              f" digest={summary.get('trace_digest', '')[:12]} "
              + " ".join(f"{k}={v['value']:.4g}"
                         for k, v in result["metrics"].items()), flush=True)
        correct = correct and result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, shares, correct


def spread(vals: List[float]) -> float:
    med = statistics.median(vals)
    if len(vals) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            seeds = [args.seed0 + k * args.runs + i for i in range(args.runs)]
            done = run_set(bench, workload, seeds, args.seconds)
            if done is None:
                return 1
            sets.append(done)
            if not done[2]:
                status = 1
        shares = set().union(*(s[1] for s in sets))
        print(f"{workload}: failed share {sorted(shares)}"
              + ("  <-- differs between runs" if len(shares) > 1 else ""))
        for name, metric in metrics.items():
            bound = metric["bound"]
            lower = metric["better"] == "lower"
            first = statistics.median(sets[0][0][name])
            line = f"  {name:24s}"
            flags = []
            for k, (values, _, _) in enumerate(sets):
                med = statistics.median(values[name])
                sp = spread(values[name])
                line += f"  set{k} median {med:11.4f} spread {sp:6.3f}"
                if sp > bound / 3:
                    flags.append(f"set{k} spread above a third of the bound")
                if k:
                    worse = (med - first) / first if lower else (first - med) / first
                    line += f" worse {worse:+6.3f}"
                    if worse > bound:
                        flags.append(f"set{k} worse than set0 by more than the bound")
            print(f"{line}  bound {bound}"
                  + "".join(f"  <-- {f}" for f in flags), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
