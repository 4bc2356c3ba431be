"""Repeat bench/run.py over seeds and summarise each metric's spread.

Usage, from the root of a checkout::

    python3 bench/sweep.py --first-seed 11 --traced --out sweep.json

For every workload of BENCHMARK.json it runs ``run.py`` ten times, for
seeds first-seed to first-seed+9 and ``run_seconds`` each, one run after
the other.  It reports for each end-to-end metric the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, next to a third of the metric's bound.  With
``--traced`` it adds one traced run per workload, on the first seed.
``--out`` writes the summary as JSON, in the form of ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values),
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    summary = {"run_seconds": seconds, "runs": RUNS,
               "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
               "workloads": {}, "traced": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = [_run(workload, seed, seconds, 0) for seed in summary["seeds"]]
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        row = {"correct": correct,
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results)}
        for metric in bounds:
            stats = summarise([r["metrics"][metric]["value"] for r in results])
            row[metric] = stats
            print(f"{workload:<15} {metric:<12} median {stats['median']:10.4f}  "
                  f"q1 {stats['q1']:10.4f}  q3 {stats['q3']:10.4f}  "
                  f"spread {stats['spread']:.4f}  (bound/3 {bounds[metric] / 3:.4f})",
                  flush=True)
        print(f"{workload:<15} correct {correct}, {row['failed']} of "
              f"{row['attempted']} commands failed", flush=True)
        summary["workloads"][workload] = row
        if args.traced:
            traced = _run(workload, summary["seeds"][0], seconds, 1)
            ok = ok and traced["correct"]
            summary["traced"][workload] = {
                "correct": traced["correct"],
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
