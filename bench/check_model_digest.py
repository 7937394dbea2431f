#!/usr/bin/env python3
"""Model-digest gate: a speed-only change must not move the model.

Usage (from the repository root):

    check_model_digest.py BENCH_E2E_BINARY

Runs the bench_e2e binary once on each bench_e2e/workloads/*.json (seed 1,
the seed of the committed baseline) and compares each run's simulation
digest with the digests recorded for that workload in
bench_e2e/baseline.json. The digest hashes every simulated output
(RunResult without host timings, build string and energy), so it differs
exactly when the modelled network behaves differently. Exits 1 with
"model changed" on any mismatch, after checking every workload.

A change that is meant to alter the model re-records bench_e2e/
baseline.json with bench_e2e/run.py, saying why in EXPERIMENTS.md.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "bench_e2e" / "workloads"
BASELINE = ROOT / "bench_e2e" / "baseline.json"


def baseline_digests():
    """Returns {workload: set of digests} over every recorded run."""
    with open(BASELINE) as f:
        data = json.load(f)
    digests = {}
    for run in data["runs"]:
        for workload, result in run["workloads"].items():
            digests.setdefault(workload, set()).update(result["digests"])
    return digests


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]
    expected = baseline_digests()
    changed = []
    for config in sorted(WORKLOADS.glob("*.json")):
        workload = config.stem
        proc = subprocess.run([binary, str(config)], capture_output=True,
                              text=True, check=True)
        digest = json.loads(proc.stdout.splitlines()[-1])["digest"]
        want = expected.get(workload, set())
        status = "ok" if digest in want else "MODEL CHANGED"
        print(f"  {workload:30} digest {digest}  baseline "
              f"{','.join(sorted(want)) or 'none'}  {status}")
        if digest not in want:
            changed.append(workload)
    if changed:
        print(f"\nmodel changed: {', '.join(changed)} no longer reproduce "
              "the baseline digest", file=sys.stderr)
        sys.exit(1)
    print("\nmodel digests match the baseline")


if __name__ == "__main__":
    main()
