#!/usr/bin/env python3
"""Gate google-benchmark results against a committed baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [--tolerance 0.25]

CI runs it on three benches, each against its own baseline in
bench/baselines/: bench_des_core (des_core.json), bench_parallel
(parallel.json) and bench_fault (fault.json). Both files are
google-benchmark JSON (--benchmark_out=... --benchmark_out_format=json).

The compared rate is each benchmark's items_per_second, which these
benches report as events (or queue operations) per second, divided by
the BM_CalibrationSpin rate measured in the *same* file, so absolute
machine speed cancels out and slow CI runners agree with fast
workstations. It is not work-normalized: a change that does the same
simulated work in fewer or more events moves it. For end-to-end,
work-normalized numbers (flit-hops/s, ticks/s, wall time, peak RSS) use
bench_e2e/run.py and bench_e2e/compare.py. The gate fails only when a
normalized rate drops more than --tolerance below the baseline;
improvements never fail.

To re-baseline after an intentional engine change, see README.md
("Performance regression gate").
"""

import argparse
import json
import statistics
import sys

CALIBRATION = "BM_CalibrationSpin"


def load_rates(path):
    """Returns {benchmark name: median items_per_second} for a run."""
    with open(path) as f:
        data = json.load(f)
    samples = {}
    for bench in data["benchmarks"]:
        # Skip mean/median/stddev aggregate rows; collect raw repetitions.
        if bench.get("run_type") == "aggregate":
            continue
        rate = bench.get("items_per_second")
        if rate is None:
            continue
        samples.setdefault(bench["name"], []).append(rate)
    return {name: statistics.median(rates) for name, rates in samples.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args()

    base = load_rates(args.baseline)
    curr = load_rates(args.current)

    for name, rates in ((args.baseline, base), (args.current, curr)):
        if CALIBRATION not in rates:
            sys.exit(f"error: {name} has no {CALIBRATION} entry; "
                     "run with a filter that includes it")

    base_cal = base[CALIBRATION]
    curr_cal = curr[CALIBRATION]
    print(f"calibration: baseline {base_cal:.3e}/s, "
          f"current {curr_cal:.3e}/s "
          f"(machine speed ratio {curr_cal / base_cal:.2f}x)")

    failures = []
    width = max((len(n) for n in base), default=10)
    for name in sorted(base):
        if name == CALIBRATION:
            continue
        if name not in curr:
            failures.append(f"{name}: missing from current run")
            continue
        normalized = (curr[name] / curr_cal) / (base[name] / base_cal)
        status = "ok"
        if normalized < 1.0 - args.tolerance:
            status = "REGRESSION"
            failures.append(
                f"{name}: {normalized:.2f}x of baseline "
                f"(tolerance {1.0 - args.tolerance:.2f}x)")
        print(f"  {name:<{width}}  base {base[name]:.3e}/s  "
              f"curr {curr[name]:.3e}/s  normalized {normalized:.2f}x  "
              f"{status}")

    if failures:
        print("\nperformance gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nperformance gate passed")


if __name__ == "__main__":
    main()
