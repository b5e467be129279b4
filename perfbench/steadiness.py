"""Steadiness report: run workloads N times and summarise the spread.

Runs ``run.py`` once per seed (``--first-seed``, ``--first-seed + 1``,
...) for each workload, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the interquartile
range as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A share above a third of the bound is flagged:
bounds are meant to sit well above the run-to-run spread.

    python3 perfbench/steadiness.py --workloads bulk-wlan-n,fleet-churn --runs 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = ",".join(w["name"] for w in bench["workloads"])
    parser.add_argument("--workloads", default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    args = parser.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT ({result['failed']}"
                      f" of {result['attempted']} flows failed)")
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"\n{workload}: {len(runs)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}")
        print(f"  {'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s}"
              f" {'iqr/med':>8s} {'bound':>6s}")
        for name in runs[0]:
            values = [r[name] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and share > bound / 3:
                flag = "  > bound/3"
                steady = False
            print(f"  {name:34s} {med:11.5g} {q1:11.5g} {q3:11.5g}"
                  f" {share:8.3f} {bound if bound is not None else '-':>6}"
                  f"{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
