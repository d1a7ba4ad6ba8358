"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W --runs 10 [--first-seed 1] [--seconds S]

Spread is the inter-quartile distance of a metric's per-run values as a
share of their median (``statistics.quantiles(values, n=4)``), the figure
each end-to-end metric's bound in BENCHMARK.json is checked against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from harness import BENCH_DIR, ROOT
from percentiles import spread


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':<20}{'median':>14}{'spread':>9}{'bound':>7}")
    for name, series in values.items():
        print(f"{name:<20}{statistics.median(series):>14.6g}"
              f"{spread(series):>9.3f}{bounds.get(name, float('nan')):>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
