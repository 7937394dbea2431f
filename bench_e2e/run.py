#!/usr/bin/env python3
"""End-to-end benchmark of the supersim simulator.

Builds bench_e2e (CMakeLists.txt next to this file) from the sources in
../src and runs the workloads in workloads/, one simulation per fresh
process, so a process's peak RSS and CPU time belong to exactly one
simulation. The seed is an argument: it is written into a generated
copy of each workload config, and bench_e2e sees only that copy. One
process runs at a time, and the next starts when the previous one has
exited.

Usage, one workload for a fixed time (run from the repository root):

    python3 bench_e2e/run.py --workload torus_ur_serial --seed 1 \\
        --seconds 30 --trace 0

  Repeats one cycle of processes until --seconds have passed (one run)
  and prints, as the last line of stdout, one JSON object {"correct",
  "attempted", "failed", "metrics"}: the end-to-end metrics with
  --trace 0, the per-layer metrics with --trace 1.

Usage, every workload:

    python3 bench_e2e/run.py --seed 1 --reps 10 --out results.json

  Runs each workload --reps times, for --seconds (default 6) each,
  rotating the workload order on each repetition, then once with the
  traced cycle for three times as long. Each run's medians are its
  samples. Prints every
  metric of every workload with its median, quartiles and unit, and
  writes the results file that bench_e2e/compare.py reads. Takes about
  5 minutes.

Host times are in reference seconds. Every cycle of processes sits
between two runs of `bench_e2e --calibrate`, a fixed reference kernel
that shares no code with the simulator, on as many threads as the
workload uses. Each process's host times are multiplied by
REFERENCE_S / (geometric mean of the two calibration times). On a
shared host whose speed swings by 10-30% from one second to the next,
this keeps the spread between runs within a few percent. The
calibration time itself is reported as host.calibration_s.

Every simulation is checked: exit status 0, not saturated, every
injected flit ejected, no message left in flight, the fault ledger
balanced, a positive energy per bit when the power model is on, and one
simulation digest across all untraced runs of a workload at one seed.
A process that fails any check counts in "failed".

A traced cycle runs the workload untraced, then with the simulator's
observability layer on (series to a temporary file, Chrome trace off) to
read the router and interface counters, then with the power model and
the fault block each flipped, for the three overhead ratios. The phase
spans that bench_e2e records around each API call (load, build, run,
report, teardown) are written for every process as one Chrome-trace
JSON (--trace-file).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = [
    "torus_ur_serial",
    "torus_ur_parallel",
    "hyperx_ugal_power",
    "dragonfly_collective_fault",
]
PHASES = ["load", "build", "run", "report", "teardown"]
# One simulation takes about a second; anything near this is a hang.
PROCESS_TIMEOUT_S = 60
# Host times are scaled to a host on which the calibration kernel takes
# this long (about its time on an idle 2.1 GHz x86-64 core).
REFERENCE_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "flit_hops_per_s": "1/s",
    "sim_ticks_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "json.load_s": "s",
    "sim.build_s": "s",
    "sim.finalize_s": "s",
    "sim.report_s": "s",
    "sim.teardown_s": "s",
    "sim.end_tick": "ticks",
    "core.run_s": "s",
    "core.events": "count",
    "core.events_per_flit_hop": "ratio",
    "core.ns_per_event": "ns",
    "core.peak_queue_depth": "count",
    "core.pooled_events_allocated": "count",
    "core.callback_events_allocated": "count",
    "core.partitions": "count",
    "network.flit_hops": "count",
    "network.ns_per_flit_hop": "ns",
    "network.credits_per_flit_hop": "ratio",
    "network.channel_util_mean": "ratio",
    "network.channel_util_max": "ratio",
    "router.pipeline_evals_per_flit_hop": "ratio",
    "router.hop_latency_mean_ticks": "ticks",
    "allocator.vca_grants_per_flit_hop": "ratio",
    "allocator.sa_grant_ratio": "ratio",
    "arbiter.arbitrations_per_flit_hop": "ratio",
    "routing.nonminimal_fraction": "ratio",
    "interface.injection_stalls_per_flit": "ratio",
    "stats.sampled_messages": "count",
    "stats.latency_p50_ticks": "ticks",
    "stats.latency_p99_ticks": "ticks",
    "stats.throughput": "ratio",
    "power.overhead_ratio": "ratio",
    "fault.overhead_ratio": "ratio",
    "fault.recoveries": "count",
    "fault.recovery_latency_mean_ticks": "ticks",
    "obs.overhead_ratio": "ratio",
    "host.calibration_s": "s",
}

# One untraced cycle: a build-only run ("setup") and a full run.
PLAIN_CYCLE = ["setup", "base"]
TRACED_CYCLE = ["base", "traced", "power_flip", "fault_flip"]


def build(build_dir):
    """Configures (until it succeeds once) and builds bench_e2e; returns
    the binary path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log = sys.stderr
    if not any((build_dir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=log, stderr=log)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=log, stderr=log)
    return build_dir / "bench_e2e"


def load_workload(workload):
    with open(BENCH_DIR / "workloads" / f"{workload}.json") as f:
        return json.load(f)


def make_config(workload, seed, variant, tmp_dir):
    """Writes the workload config for one run and returns its path."""
    config = load_workload(workload)
    config["simulator"]["seed"] = seed
    if variant == "traced":
        config["observability"] = {
            "enabled": True,
            "sample_interval": 1000,
            "series_file": str(tmp_dir / f"{workload}.series.csv"),
            # Packet and hop spans at this scale would be gigabytes.
            "trace_file": "",
        }
    elif variant == "power_flip":
        config["power"]["enabled"] = not config["power"]["enabled"]
    elif variant == "fault_flip":
        config["fault"]["enabled"] = not config["fault"]["enabled"]
    path = tmp_dir / f"{workload}.{variant}.json"
    with open(path, "w") as f:
        json.dump(config, f)
    return path


class Runner:
    """Launches bench_e2e processes one at a time and keeps every record."""

    def __init__(self, binary, seed, tmp_dir):
        self.binary = binary
        self.seed = seed
        self.tmp_dir = tmp_dir
        self.origin = time.monotonic()
        self.records = []
        self.cycles = 0
        self.last_calibration = None

    def run(self, workload, variant):
        if variant == "calibrate":
            threads = load_workload(workload)["simulator"].get("threads", 1)
            cmd = [str(self.binary), "--calibrate", str(threads)]
        else:
            config = make_config(workload, self.seed, variant, self.tmp_dir)
            cmd = [str(self.binary), str(config)]
            if variant == "setup":
                cmd.append("--setup-only")
        launch = time.monotonic()
        record = {"workload": workload, "variant": variant,
                  "id": len(self.records), "cycle": self.cycles,
                  "launch_s": launch - self.origin}
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
            if proc.returncode != 0:
                record["error"] = (f"exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-500:]}")
            else:
                record.update(json.loads(proc.stdout.splitlines()[-1]))
        except subprocess.TimeoutExpired:
            record["error"] = f"timed out after {PROCESS_TIMEOUT_S} s"
        except (ValueError, IndexError) as e:
            record["error"] = f"unreadable output: {e}"
        record["elapsed_s"] = time.monotonic() - launch
        self.records.append(record)
        return record

    def cycle(self, workload, variants):
        """Runs @p variants with a calibration before the first and after
        every full simulation. A process's host times are scaled by the
        geometric mean of the calibrations around it; a build-only
        process shares the pair of the simulation after it. Back-to-back
        cycles of one workload share the calibration between them."""
        before = self.last_calibration
        if before is None or before["workload"] != workload:
            before = self.run(workload, "calibrate")
        pending = []
        for variant in variants:
            pending.append(self.run(workload, variant))
            if variant == "setup":
                continue
            after = self.run(workload, "calibrate")
            pair = [before.get("calibration_s"), after.get("calibration_s")]
            for r in pending:
                r["calibration_s"] = (math.sqrt(pair[0] * pair[1])
                                      if None not in pair else None)
            pending = []
            before = after
        self.last_calibration = before
        self.cycles += 1


def check(record):
    """Returns the correctness problems of one process (empty if none)."""
    if "error" in record:
        return [record["error"]]
    if record["variant"] == "calibrate":
        return []
    problems = []
    if record["calibration_s"] is None:
        problems.append("no calibration")
    if record["variant"] == "setup":
        return problems
    if record["saturated"]:
        problems.append("saturated")
    if record["flits_injected"] != record["flits_ejected"]:
        problems.append(f"flits injected {record['flits_injected']} != "
                        f"ejected {record['flits_ejected']}")
    if record["messages_in_flight"] != 0:
        problems.append(f"{record['messages_in_flight']} messages in flight")
    fault = record.get("fault")
    if fault and (fault["flits_outstanding"] != 0
                  or fault["completed"] != fault["injected"]):
        problems.append(f"fault ledger unbalanced: {fault}")
    energy = record.get("energy")
    if energy and not energy["joules_per_bit"] > 0:
        problems.append("joules_per_bit is not positive")
    return problems


def judge(records):
    """Marks each record's problems, including digest drift; returns the
    number of failed processes."""
    digest = None
    failed = 0
    for r in records:
        r["problems"] = check(r)
        if r["variant"] == "base" and not r["problems"]:
            digest = digest or r["digest"]
            if r["digest"] != digest:
                r["problems"].append(
                    f"sim digest {r['digest']} != the first one's, {digest}")
        failed += bool(r["problems"])
    return failed


def run_values(r):
    """Values of one untraced full simulation, host times scaled."""
    scale = REFERENCE_S / r["calibration_s"]
    p = r["phases"]
    hops = r["flit_hops"]
    run_s = r["run_wall_s"] * scale
    return {
        "wall_s": sum(p[name] for name in PHASES) * scale,
        "flit_hops_per_s": hops / run_s,
        "sim_ticks_per_s": r["end_tick"] / run_s,
        "cpu_s": r["cpu_s"] * scale,
        "peak_rss_mb": r["peak_rss_kb"] / 1024,
        "sim.finalize_s": p["finalize"] * scale,
        "sim.report_s": p["report"] * scale,
        "sim.teardown_s": p["teardown"] * scale,
        "core.run_s": run_s,
        "core.ns_per_event": run_s * 1e9 / r["events"],
        "network.ns_per_flit_hop": run_s * 1e9 / hops,
        "host.calibration_s": r["calibration_s"],
    }


def setup_values(r):
    """Set-up times of a full or build-only process, scaled."""
    scale = REFERENCE_S / r["calibration_s"]
    p = r["phases"]
    return {
        "setup_s": (p["load"] + p["build"]) * scale,
        "json.load_s": p["load"] * scale,
        "sim.build_s": p["build"] * scale,
    }


def overhead_ratios(ok):
    """Event-loop time with observability, power or faults on over that
    with them off: the median over traced cycles of the ratio of the
    scaled times of two simulations in one cycle."""
    cycles = {}
    for r in ok:
        cycles.setdefault(r["cycle"], {})[r["variant"]] = r
    ratios = {"obs": [], "power": [], "fault": []}
    for runs in cycles.values():
        if not all(v in runs for v in TRACED_CYCLE):
            continue
        scaled = {v: r["run_wall_s"] / r["calibration_s"]
                  for v, r in runs.items() if v in TRACED_CYCLE}
        base = scaled["base"]
        ratios["obs"].append(scaled["traced"] / base)
        # Each ratio is on over off, whichever of the two the workload's
        # own config has; a simulation reports its "energy" or "fault"
        # block only when that subsystem was on.
        for subsystem, block in (("power", "energy"), ("fault", "fault")):
            flip = scaled[f"{subsystem}_flip"]
            on_in_base = block in runs["base"]
            ratios[subsystem].append(base / flip if on_in_base
                                     else flip / base)
    return {f"{k}.overhead_ratio": statistics.median(v)
            for k, v in ratios.items() if v}


def layer_counts(by_variant):
    """Per-layer counts and ratios. Simulated counts repeat exactly
    across simulations at one seed, so the first simulation of a variant
    supplies them."""
    b = by_variant["base"][0]
    hops = b["flit_hops"]
    out = {
        "sim.end_tick": b["end_tick"],
        "core.events": b["events"],
        "core.events_per_flit_hop": b["events"] / hops,
        "core.peak_queue_depth": b["peak_queue_depth"],
        "core.pooled_events_allocated": b["pooled_events_allocated"],
        "core.callback_events_allocated": b["callback_events_allocated"],
        "core.partitions": b["partitions"],
        "network.flit_hops": hops,
        "network.credits_per_flit_hop": b["credits"] / hops,
        "network.channel_util_mean": b["channel_util_mean"],
        "network.channel_util_max": b["channel_util_max"],
        "routing.nonminimal_fraction": b.get("nonminimal_fraction", 0.0),
        "stats.sampled_messages": b["sampled_messages"],
        "stats.latency_p50_ticks": b.get("latency_p50", 0.0),
        "stats.latency_p99_ticks": b.get("latency_p99", 0.0),
        "stats.throughput": b["throughput"],
    }
    if by_variant.get("traced"):
        traced = by_variant["traced"][0]
        obs = traced["obs"]
        out.update({
            "router.pipeline_evals_per_flit_hop":
                obs["pipeline_evals"] / traced["flit_hops"],
            "router.hop_latency_mean_ticks":
                obs["hop_latency_sum"] / max(1, obs["hop_latency_count"]),
            "allocator.vca_grants_per_flit_hop":
                obs["vca_grants"] / traced["flit_hops"],
            "allocator.sa_grant_ratio":
                obs["sa_grants"] / max(1, obs["pipeline_evals"]),
            "interface.injection_stalls_per_flit":
                obs["injection_stalls"] / traced["flits_injected"],
        })
    power_on = [r for r in by_variant.get("base", []) +
                by_variant.get("power_flip", []) if "energy" in r]
    if power_on:
        on = power_on[0]
        out["arbiter.arbitrations_per_flit_hop"] = (
            on["energy"]["arbitrations"] / on["flit_hops"])
    fault_on = [r for r in by_variant.get("base", []) +
                by_variant.get("fault_flip", []) if "fault" in r]
    if fault_on:
        on = fault_on[0]
        out["fault.recoveries"] = on["fault"]["recovered"]
        out["fault.recovery_latency_mean_ticks"] = (
            on["fault"]["recovery_latency_mean"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(records):
    """Aggregates the judged records of one measurement into per-process
    samples and metric medians with quartiles."""
    ok = [r for r in records if not r["problems"]]
    by_variant = {}
    for r in ok:
        by_variant.setdefault(r["variant"], []).append(r)
    samples = {}
    for r in by_variant.get("base", []):
        for name, value in run_values(r).items():
            samples.setdefault(name, []).append(value)
    for r in by_variant.get("setup", []) + by_variant.get("base", []):
        for name, value in setup_values(r).items():
            samples.setdefault(name, []).append(value)
    units = {**END_TO_END, **PER_LAYER}
    metrics = {}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "q1": q1,
                         "q3": q3, "n": len(values), "unit": units[name]}
    exact = overhead_ratios(ok)
    if by_variant.get("base"):
        exact.update(layer_counts(by_variant))
    for name, value in exact.items():
        metrics[name] = {"value": value, "q1": value, "q3": value, "n": 1,
                         "unit": units[name]}
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "problems": sorted({p for r in records for p in r["problems"]}),
        "digests": sorted({r["digest"] for r in by_variant.get("base", [])}),
        "samples": samples,
        "metrics": metrics,
    }


def write_phase_trace(path, records):
    """Writes every process's phase spans as one Chrome-trace JSON: one
    track per process (tid = its id) under one trace process per
    workload."""
    events = []
    for pid, workload in enumerate(WORKLOADS, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": workload}})
    for r in records:
        pid = WORKLOADS.index(r["workload"]) + 1
        launch_us = r["launch_s"] * 1e6
        events.append({"name": f"{r['variant']} #{r['id']}", "ph": "X",
                       "ts": launch_us, "dur": r["elapsed_s"] * 1e6,
                       "pid": pid, "tid": r["id"],
                       "args": {"cycle": r["cycle"]}})
        for span in r.get("spans", []):
            events.append({"name": span["name"], "ph": "X",
                           "ts": launch_us + span["start_us"],
                           "dur": span["dur_us"], "pid": pid,
                           "tid": r["id"]})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def measure(runner, workload, seconds, cycle):
    """Repeats one workload's @p cycle until @p seconds have passed,
    starting no cycle that would end past them (but at least one), and
    returns the judged records of this measurement."""
    runner.last_calibration = None
    first = len(runner.records)
    start = time.monotonic()
    cycles = 0
    while True:
        runner.cycle(workload, cycle)
        cycles += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / cycles > seconds:
            break
    records = runner.records[first:]
    judge(records)
    return records


def single_workload(args, runner):
    records = measure(runner, args.workload, args.seconds,
                      TRACED_CYCLE if args.trace else PLAIN_CYCLE)
    summary = summarize(records)
    if args.trace:
        write_phase_trace(args.trace_file, records)
    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": summary["metrics"][name]["value"],
                      "unit": unit}
               for name, unit in wanted.items()
               if name in summary["metrics"]}
    for problem in summary["problems"]:
        print(f"{args.workload}: {problem}", file=sys.stderr)
    correct = summary["failed"] == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def combine(plain, traced):
    """One workload's result in set mode. Each untraced measurement is one
    run: its medians are that run's samples, and the metric is their
    median. Per-layer counts and ratios come from the traced measurement."""
    samples = {}
    for summary in plain:
        for name in summary["samples"]:
            samples.setdefault(name, []).append(
                summary["metrics"][name]["value"])
    metrics = dict(traced["metrics"])
    units = {**END_TO_END, **PER_LAYER}
    for name, values in samples.items():
        q1, q3 = quartiles(values)
        metrics[name] = {"value": statistics.median(values), "q1": q1,
                         "q3": q3, "n": len(values), "unit": units[name]}
    everything = plain + [traced]
    digests = sorted({d for s in everything for d in s["digests"]})
    problems = sorted({p for s in everything for p in s["problems"]})
    failed = sum(s["failed"] for s in everything)
    if len(digests) > 1:
        problems.append("sim digest differs between repetitions")
        failed += 1
    return {
        "attempted": sum(s["attempted"] for s in everything),
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "samples": samples,
        "metrics": metrics,
    }


def all_workloads(args, runner):
    plain = {workload: [] for workload in WORKLOADS}
    for rep in range(args.reps):
        shift = rep % len(WORKLOADS)
        for workload in WORKLOADS[shift:] + WORKLOADS[:shift]:
            records = measure(runner, workload, args.seconds, PLAIN_CYCLE)
            plain[workload].append(summarize(records))
    results = {}
    for workload in WORKLOADS:
        records = measure(runner, workload, 3 * args.seconds, TRACED_CYCLE)
        results[workload] = combine(plain[workload], summarize(records))
    write_phase_trace(args.trace_file, runner.records)
    failed = 0
    for workload, summary in results.items():
        failed += summary["failed"]
        print(f"\n{workload}: {summary['attempted']} processes, "
              f"{summary['failed']} failed (failed_run_fraction "
              f"{summary['failed'] / summary['attempted']:.3f}), "
              f"sim digest {','.join(summary['digests'])}")
        for problem in summary["problems"]:
            print(f"  FAILED: {problem}")
        print(f"  {'metric':38} {'median':>13} {'q1':>13} {'q3':>13}"
              f" {'n':>3}  unit")
        for name in list(END_TO_END) + list(PER_LAYER):
            m = summary["metrics"].get(name)
            if m is None:
                print(f"  {name:38} {'missing':>13}")
                continue
            print(f"  {name:38} {m['value']:13.6g} {m['q1']:13.6g} "
                  f"{m['q3']:13.6g} {m['n']:3}  {m['unit']}")
    print(f"\nphase trace: {args.trace_file}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "seconds": args.seconds,
                       "workloads": results}, f, indent=1)
        print(f"results: {args.out}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time of one run (default: 30 with "
                             "--workload, 6 without)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="with --workload: 1 reports per-layer metrics")
    parser.add_argument("--reps", type=int, default=10,
                        help="runs per workload without --workload")
    parser.add_argument("--build", type=Path,
                        default=ROOT / ".bench_build" / "bench_e2e",
                        help="build directory of bench_e2e")
    parser.add_argument("--out", type=Path,
                        help="without --workload: results file for "
                             "compare.py")
    parser.add_argument("--trace-file", type=Path,
                        help="Chrome-trace JSON of the phase spans "
                             "(default: BUILD/phases.trace.json)")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 30.0 if args.workload else 6.0
    if args.trace_file is None:
        args.trace_file = args.build / "phases.trace.json"
    try:
        binary = build(args.build)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"bench_e2e: build failed: {e}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(dir=args.build) as tmp:
        runner = Runner(binary, args.seed, Path(tmp))
        if args.workload:
            return single_workload(args, runner)
        return all_workloads(args, runner)


if __name__ == "__main__":
    sys.exit(main())
