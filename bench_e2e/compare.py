#!/usr/bin/env python3
"""Compare two sets of bench_e2e runs, metric by metric, workload by workload.

Usage:
    python3 bench_e2e/compare.py PARENT.json CHANGE.json

Each file is a `run.py --out` results file, or bench_e2e/baseline.json,
which holds several such results under "runs" (their runs are pooled).

For every end-to-end metric of BENCHMARK.json on every workload it prints
both medians and quartiles, the change of the median, and a verdict:

  REGRESSION   the change's median is worse than the parent's by more
               than the metric's bound (and the parent's spread is
               within the bound, or every change run is worse);
  unresolved   the parent's own spread (interquartile range over median)
               exceeds the bound, so the data cannot say, unless every
               change run beats every parent run;
  gain         the change wins at least 9 of 10 paired runs and its
               median moved by more than the parent's spread;
  ok           otherwise.

Runs pair up by position when both sides have the same number of runs;
the win fraction is then shown (ties count for neither side). Per-layer
metrics are printed with their change and no verdict. A different sim
digest prints "model changed": not a failure in itself, but a pure-speed
change must show none. Exits 1 on any regression or on a higher share
of failed processes than the parent's.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def load(path):
    """Returns {workload: pooled summary} of a results or baseline file."""
    with open(path) as f:
        data = json.load(f)
    runs = data["runs"] if "runs" in data else [data]
    pooled = {}
    for run in runs:
        for workload, summary in run["workloads"].items():
            p = pooled.setdefault(workload, {
                "attempted": 0, "failed": 0, "digests": set(),
                "samples": {}, "metrics": summary["metrics"]})
            p["attempted"] += summary["attempted"]
            p["failed"] += summary["failed"]
            p["digests"].update(summary["digests"])
            for name, values in summary["samples"].items():
                p["samples"].setdefault(name, []).extend(values)
    return {"seeds": {run["seed"] for run in runs}, "workloads": pooled}


def better(a, b, direction):
    """True when value b is better than value a."""
    return b < a if direction == "lower" else b > a


def verdict(a, b, metric):
    """Compares the runs of one end-to-end metric; returns a table row."""
    direction = metric["better"]
    bound = metric["bound"]
    q1a, med_a, q3a = quartiles(a)
    q1b, med_b, q3b = quartiles(b)
    change = (med_b - med_a) / med_a
    worse_by = change if direction == "lower" else -change
    spread = (q3a - q1a) / med_a
    wins = ""
    win_fraction = 0.0
    if len(a) == len(b):
        won = sum(better(x, y, direction) for x, y in zip(a, b))
        win_fraction = won / len(a)
        wins = f"{won}/{len(a)}"
    every_run_better = all(better(x, y, direction) for x in a for y in b)
    every_run_worse = all(better(y, x, direction) for x in a for y in b)
    if worse_by > bound and (spread <= bound or every_run_worse):
        status = "REGRESSION"
    elif spread > bound and not every_run_better:
        status = "unresolved"
    elif (every_run_better or win_fraction >= 0.9) and -worse_by > spread:
        status = "gain"
    else:
        status = "ok"
    return status, (f"{med_a:12.5g} [{q1a:.4g}, {q3a:.4g}]",
                    f"{med_b:12.5g} [{q1b:.4g}, {q3b:.4g}]",
                    f"{change:+8.2%}", f"{spread:7.2%}", wins, status)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    parent = load(args.parent)
    change = load(args.change)
    if parent["seeds"] != change["seeds"]:
        print(f"note: seeds differ ({sorted(parent['seeds'])} vs "
              f"{sorted(change['seeds'])}); digests are not comparable")

    failing = []
    header = (f"  {'metric':36} {'parent median [q1, q3]':>30} "
              f"{'change median [q1, q3]':>30} {'change':>8} "
              f"{'spread':>7} {'wins':>5}  verdict")
    for workload in sorted(parent["workloads"].keys()
                           | change["workloads"].keys()):
        a = parent["workloads"].get(workload)
        b = change["workloads"].get(workload)
        print(f"\n{workload}")
        if a is None or b is None:
            print("  only in " + ("change" if a is None else "parent"))
            continue
        fail_a = a["failed"] / a["attempted"]
        fail_b = b["failed"] / b["attempted"]
        print(f"  failed processes: parent {a['failed']}/{a['attempted']}, "
              f"change {b['failed']}/{b['attempted']}")
        if fail_b > fail_a:
            failing.append(f"{workload}: larger share of failed processes")
        if a["digests"] != b["digests"]:
            print(f"  model changed: sim digest {sorted(a['digests'])} -> "
                  f"{sorted(b['digests'])}")
        print(header)
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            runs_a = a["samples"].get(name)
            runs_b = b["samples"].get(name)
            if not runs_a or not runs_b:
                print(f"  {name:36} missing")
                continue
            status, row = verdict(runs_a, runs_b, metric)
            print(f"  {name:36} {row[0]:>30} {row[1]:>30} {row[2]:>8} "
                  f"{row[3]:>7} {row[4]:>5}  {row[5]}")
            if status == "REGRESSION":
                failing.append(f"{workload}: {name} regressed")
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            ma = a["metrics"].get(name)
            mb = b["metrics"].get(name)
            if ma is None or mb is None:
                continue
            va, vb = ma["value"], mb["value"]
            delta = f"{(vb - va) / va:+8.2%}" if va else ""
            print(f"  {name:36} {va:30.6g} {vb:30.6g} {delta:>8}"
                  f"  {metric['unit']}")

    print()
    for line in failing:
        print(f"FAIL {line}")
    print("FAIL" if failing else "PASS")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
