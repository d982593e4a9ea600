#!/usr/bin/env python3
"""Host-speed benchmark of the simulator, end to end and layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite-rec --seed 1 --seconds 25 --trace 0

Workloads (see README.md beside this file): ``suite-rec``, ``mix4-smt``
and ``campaign``.  The run repeats whole rounds of the workload until
``--seconds`` have passed, checks every simulated result, and prints as
its last line one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics, writing its spans to
``.perfbench/trace-<workload>-seed<seed>.json``.  ``--smoke`` shrinks
every round to a few seconds' work (for the benchmark's own tests).

Single process, single thread: no worker threads, no HTTP, no process
pool.  The only child processes are the sequential set-up probes that
measure ``setup_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    CALIBRATION_REFERENCE_S,
    FULL,
    SMOKE,
    WORKLOADS,
    NullProbe,
    calibration_mark,
    cleanup,
    log,
    prepare,
    run_round,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fresh processes timed from start to ready; ``setup_s`` is their median.
SETUP_PROBES = 7

E2E_UNITS = {
    "sim_instr_per_s": "instr/s",
    "points_per_s": "1/s",
    "ipc": "instr/cycle",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure whole rounds until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny rounds, one round, one set-up probe")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_rounds(ctx, seconds: float, once: bool, traced=None):
    """Whole rounds until ``seconds`` pass; with ``traced`` (a probe and
    its instrumentation), each untraced round is followed by a traced one.
    The untraced rounds of a traced run then calibrate at segment ends
    only, as the traced ones must, so that the two compare like for like."""
    deadline = time.monotonic() + seconds
    plain_probe = None if traced is None else NullProbe(interval=None)
    plain, probed = [], []
    while True:
        plain.append(run_round(ctx, plain[0] if plain else None, plain_probe))
        if traced is not None:
            probe, instrument = traced
            with instrument():
                probed.append(run_round(ctx, plain[0], probe))
        if once or time.monotonic() >= deadline:
            return plain, probed


def consistency_errors(rounds, reference) -> list:
    """Simulated cycle counts must repeat exactly across rounds."""
    errors = []
    for index, rnd in enumerate(rounds):
        errors.extend(rnd.run_level_errors)
        for point, cycles in rnd.cycles.items():
            expected = reference.cycles.get(point)
            if expected is not None and expected != cycles:
                errors.append(f"round {index}: {point} took {cycles} cycles, "
                              f"first round {expected}")
    return errors


def throughput(rounds):
    """Median over rounds of committed instructions and of completed
    points per second of the timed region, at the reference host speed."""
    ips = statistics.median(r.committed / r.scaled_wall for r in rounds)
    pps = statistics.median((r.points - r.failed) / r.scaled_wall for r in rounds)
    return ips, pps


def mean_ipc(rnd) -> float:
    """Mean per-point IPC, as ``sim.runner.average_ipc`` computes it, in a
    fixed point order so that it repeats exactly."""
    values = [rnd.ipcs[point] for point in sorted(rnd.ipcs)]
    return sum(values) / len(values) if values else 0.0


def setup_seconds(args) -> float:
    """Median time from process start to ready over fresh probe processes,
    each scaled to the reference host speed by calibrations just before
    and just after it."""
    samples = []
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    for _ in range(1 if args.smoke else SETUP_PROBES):
        before = calibration_mark()
        started = time.monotonic()
        probe = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=120,
                               check=True)
        ready = float(probe.stdout.split()[-1])
        after = calibration_mark()
        samples.append((ready - started) * 2.0 * CALIBRATION_REFERENCE_S / (before[2] + after[2]))
    return statistics.median(samples)


def report(correct: bool, rounds, metrics) -> dict:
    return {
        "correct": correct,
        "attempted": sum(r.points for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def timed_run(ctx, args) -> dict:
    rounds, _ = measure_rounds(ctx, args.seconds, once=args.smoke)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    errors = consistency_errors(rounds, rounds[0])
    for error in errors:
        log(error)
    ips, pps = throughput(rounds)
    log(f"{args.workload}: {len(rounds)} rounds; instr/s per round, scaled (raw): "
        + ", ".join(f"{r.committed / r.scaled_wall:.0f} ({r.committed / r.wall:.0f})"
                    for r in rounds))
    values = {
        "sim_instr_per_s": ips,
        "points_per_s": pps,
        "ipc": mean_ipc(rounds[0]),
        "setup_s": setup_seconds(args),
        "peak_rss_mb": peak_rss_mb,
    }
    correct = not errors and any(r.committed for r in rounds)
    return report(correct, rounds, {k: (v, E2E_UNITS[k]) for k, v in values.items()})


def traced_run(ctx, args) -> dict:
    from tracing import LAYER_METRICS, TraceProbe, instrument_campaign

    probe = TraceProbe()
    if ctx.workload == "campaign":
        instrument = functools.partial(instrument_campaign, probe)
    else:
        instrument = contextlib.nullcontext
    plain, traced = measure_rounds(ctx, args.seconds, once=args.smoke,
                                   traced=(probe, instrument))
    errors = consistency_errors(plain + traced, plain[0])
    for error in errors:
        log(error)
    for rnd in traced:
        probe.add("jobs_run", rnd.jobs_run)
        probe.add("jobs_from_store", rnd.jobs_from_store)
    plain_ips, _ = throughput(plain)
    traced_ips, _ = throughput(traced)
    overhead_pct = 100.0 * (plain_ips - traced_ips) / plain_ips if plain_ips else 0.0
    log(f"{args.workload}: tracing overhead {overhead_pct:.1f}% of sim_instr_per_s "
        f"({plain_ips:.0f} untraced, {traced_ips:.0f} traced)")
    values = probe.layer_metrics(len(traced), ctx.import_s, ctx.assemble_s, overhead_pct)
    probe.dump(WORKDIR / f"trace-{args.workload}-seed{args.seed}.json", {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(traced),
        "untraced_sim_instr_per_s": plain_ips,
        "traced_sim_instr_per_s": traced_ips,
        "per_layer": values,
    })
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    correct = not errors and any(r.committed for r in traced)
    return report(correct, plain + traced, {k: (v, units[k]) for k, v in values.items()})


def pin_to_current_cpu() -> None:
    """Keep the run, and the set-up probes it starts, on the CPU it began
    on, so that the calibrations measure the CPU the timed work runs on:
    the two CPUs of a shared virtual machine slow down independently."""
    try:
        stat = Path("/proc/self/stat").read_text()
        os.sched_setaffinity(0, {int(stat.rsplit(")", 1)[1].split()[36])})
    except (OSError, ValueError, IndexError, AttributeError):
        pass  # not Linux: run unpinned


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        log(f"no simulator source at {SRC / 'repro'}; run from a checkout of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    if not args.setup_probe:
        pin_to_current_cpu()
    sizes = SMOKE if args.smoke else FULL
    ctx = prepare(args.workload, args.seed, sizes, WORKDIR)
    try:
        if args.setup_probe:
            print(repr(time.monotonic()), flush=True)
            return 0
        result = traced_run(ctx, args) if args.trace else timed_run(ctx, args)
    finally:
        cleanup(ctx)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
