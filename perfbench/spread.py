"""Run the benchmark on several seeds and report each metric's spread.

::

    python3 perfbench/spread.py --workload serve_mixed --runs 10 [--first-seed 1]
        [--seconds S] [--trace 0] [--verbose]

For every metric: the median over the runs and the inter-quartile
distance as a share of the median (``statistics.quantiles(values,
n=4)``), next to the bound ``BENCHMARK.json`` allows; plus each run's
wall time.  Runs are sequential, one at a time.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import median, quartile_spread

HERE = Path(__file__).resolve().parent


def main() -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--verbose", action="store_true", help="print every value")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    values: dict[str, list[float]] = {}
    walls = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        walls.append(time.perf_counter() - t0)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: {walls[-1]:.1f} s, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']}",
              flush=True)
        if not result["correct"]:
            print("\n".join(l for l in lines if l.startswith("CHECK FAILED")))
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if args.verbose:
        for name, series in values.items():
            print(f"{name:28s} " + " ".join(f"{v:10.5g}" for v in series))

    print(f"\n{'metric':28s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, series in values.items():
        spread = quartile_spread(series) if len(series) > 1 and median(series) else 0.0
        bound = bounds.get(name)
        print(f"{name:28s} {median(series):12.6g} {spread:8.4f} "
              f"{'' if bound is None else f'{bound:6.2f}'}")
    print(f"\nrun wall: median {median(walls):.1f} s, max {max(walls):.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
