"""The traced run: benchmark-side spans and per-layer counts.

Spans are recorded around the benchmark's own calls into each module
(name, start, end, parent), kept in memory and written out as JSON when
the run ends, with each span name's total and self time.  A span's self
time is its duration minus the part its child spans cover.  Per-stage
host time comes from the pipeline's own hook, ``Core.set_profiler``
with a :class:`~repro.sim.profiler.StageProfiler`; nothing inside the
program is changed.

The campaign builds its cores inside ``sim.batch``, out of the
benchmark's reach, so for a traced round :func:`instrument_campaign`
swaps the ``Core`` name that module calls for a factory that spans
construction and ``load`` and attaches a profiler, and wraps ``BatchRunner.run`` to span it and count its
lockstep rounds.  The originals are restored when the round ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import Meter

STAGES = ("fetch", "rename", "issue", "complete", "commit")

#: Every per-layer metric: (name, unit, better).  Host times are per round.
LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("import_s", "s", "lower"),
    ("workloads.assemble_s", "s", "lower"),
    ("pipeline.build_s", "s", "lower"),
    ("pipeline.fetch_s", "s", "lower"),
    ("pipeline.rename_s", "s", "lower"),
    ("pipeline.issue_s", "s", "lower"),
    ("pipeline.complete_s", "s", "lower"),
    ("pipeline.commit_s", "s", "lower"),
    ("pipeline.loop_s", "s", "lower"),
    ("emulator.step_us", "us", "lower"),
    ("issue.ready_per_poll", "ratio", "higher"),
    ("pipeline.uops_per_commit", "ratio", "lower"),
    ("pipeline.fetched_per_commit", "ratio", "lower"),
    ("pipeline.renamed_per_commit", "ratio", "lower"),
    ("rename.recycled_pct", "%", "higher"),
    ("rename.reused_pct", "%", "higher"),
    ("tme.forks_per_kinstr", "1/kinstr", "lower"),
    ("tme.miss_coverage_pct", "%", "higher"),
    ("recycle.merges_per_alt_path", "ratio", "higher"),
    ("branch.accuracy_pct", "%", "higher"),
    ("memory.icache_miss_rate", "ratio", "lower"),
    ("memory.dcache_miss_rate", "ratio", "lower"),
    ("uopcache.hit_rate", "ratio", "higher"),
    ("uopcache.misses", "count", "lower"),
    ("batch.run_s", "s", "lower"),
    ("batch.rounds", "count", "lower"),
    ("service.submit_s", "s", "lower"),
    ("service.lease_s", "s", "lower"),
    ("service.complete_s", "s", "lower"),
    ("service.fetch_s", "s", "lower"),
    ("service.warm_submit_s", "s", "lower"),
    ("service.jobs_run", "count", "lower"),
    ("service.jobs_from_store", "count", "higher"),
    ("stats.export_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

#: Counters summed over every traced core (``SimStats`` fields first).
_STAT_FIELDS = (
    "committed", "fetched", "renamed", "renamed_recycled", "renamed_reused",
    "forks", "mispredicts", "mispredicts_covered", "cond_branches_resolved",
    "alt_path_merge_total", "alt_paths_recycled", "uop_cache_hits",
    "uop_cache_misses",
)


class TraceProbe:
    """Spans plus counters; the traced counterpart of ``NullProbe``."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.stage_seconds = {stage: 0.0 for stage in STAGES}
        self._profilers: Dict[int, object] = {}  # id(core) -> profiler
        self.pending: List = []  # campaign cores awaiting absorb_pending

    def meter(self):
        """Calibrate at segment ends only: an interrupting calibration
        would land inside the spans and stage timers."""
        return Meter(interval=None)

    # -- spans ---------------------------------------------------------
    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self.origin, "end": None}
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self.origin

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        for record in self.spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        out: Dict[str, Dict[str, float]] = {}
        for index, record in enumerate(self.spans):
            duration = record["end"] - record["start"]
            entry = out.setdefault(record["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time[index]
        return out

    # -- counters ------------------------------------------------------
    def attach(self, core) -> None:
        from repro.sim.profiler import StageProfiler

        profiler = StageProfiler()
        core.set_profiler(profiler)
        self._profilers[id(core)] = profiler

    def absorb(self, core) -> None:
        """Add one finished core's counters and stage times."""
        state = core.state
        stats = core.stats
        add = self.add
        for name in _STAT_FIELDS:
            add(name, getattr(stats, name))
        for queue in (state.int_queue, state.fp_queue):
            add("ready_polls", queue.ready_polls)
            add("ready_returned", queue.ready_returned)
        hierarchy = state.hierarchy
        add("icache_hits", hierarchy.icache.hits)
        add("icache_misses", hierarchy.icache.misses)
        add("dcache_hits", hierarchy.dcache.hits)
        add("dcache_misses", hierarchy.dcache.misses)
        add("uop_rows", state.uop_cols.n)
        profiler = self._profilers.pop(id(core), None)
        if profiler is not None:
            core.set_profiler(None)
            for stage in STAGES:
                self.stage_seconds[stage] += profiler.seconds[stage]

    def absorb_pending(self) -> None:
        for core in self.pending:
            self.absorb(core)
        self.pending.clear()

    def replayed(self, instructions: int) -> None:
        self.add("replayed", instructions)

    def time_export(self, spec, core) -> None:
        """Export a direct point's result as ``run --json`` does, so that
        ``stats.export_s`` is timed on every workload."""
        from repro.sim.runner import RunResult
        from repro.stats.export import run_result_to_dict

        with self.span("stats.export"):
            result = RunResult(spec=spec, stats=core.stats)
            for instance in core.instances:
                result.per_program_ipc[instance.name] = core.stats.instance_ipc(instance.id)
            json.dumps(run_result_to_dict(result), sort_keys=True)

    def time_replay(self, program, instructions: int) -> None:
        """Replay a campaign point's first program in a fresh emulator, so
        that ``emulator.step_us`` is timed on every workload."""
        from repro.emulator.emulator import Emulator

        with self.span("emulator.replay"):
            Emulator(program).run(instructions)
        self.replayed(instructions)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    # -- results -------------------------------------------------------
    def layer_metrics(self, rounds: int, import_s: float, assemble_s: float,
                      overhead_pct: float) -> Dict[str, float]:
        times = self.layer_times()
        c = self.counts

        def total(name: str) -> float:
            return times.get(name, {}).get("total_s", 0.0) / rounds

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        stage_total = sum(self.stage_seconds.values()) / rounds
        # The run loop's own time: the simulation calls' self time (their
        # build child spans excluded) less the five stages.
        sim_self = sum(times.get(name, {}).get("self_s", 0.0)
                          for name in ("pipeline.run", "batch.run")) / rounds
        committed = c.get("committed", 0)
        out = {
            "import_s": import_s,
            "workloads.assemble_s": assemble_s,
            "pipeline.build_s": total("pipeline.build"),
            "pipeline.loop_s": sim_self - stage_total,
            "emulator.step_us": ratio(times.get("emulator.replay", {}).get("total_s", 0.0),
                                      c.get("replayed", 0), 1e6),
            "issue.ready_per_poll": ratio(c.get("ready_returned", 0), c.get("ready_polls", 0)),
            "pipeline.uops_per_commit": ratio(c.get("uop_rows", 0), committed),
            "pipeline.fetched_per_commit": ratio(c.get("fetched", 0), committed),
            "pipeline.renamed_per_commit": ratio(c.get("renamed", 0), committed),
            "rename.recycled_pct": ratio(c.get("renamed_recycled", 0), c.get("renamed", 0), 100),
            "rename.reused_pct": ratio(c.get("renamed_reused", 0), c.get("renamed", 0), 100),
            "tme.forks_per_kinstr": ratio(c.get("forks", 0), committed, 1000),
            "tme.miss_coverage_pct": ratio(c.get("mispredicts_covered", 0),
                                           c.get("mispredicts", 0), 100),
            "recycle.merges_per_alt_path": ratio(c.get("alt_path_merge_total", 0),
                                                 c.get("alt_paths_recycled", 0)),
            "branch.accuracy_pct": 100.0 - ratio(c.get("mispredicts", 0),
                                                 c.get("cond_branches_resolved", 0), 100),
            "memory.icache_miss_rate": ratio(
                c.get("icache_misses", 0), c.get("icache_hits", 0) + c.get("icache_misses", 0)),
            "memory.dcache_miss_rate": ratio(
                c.get("dcache_misses", 0), c.get("dcache_hits", 0) + c.get("dcache_misses", 0)),
            "uopcache.hit_rate": ratio(
                c.get("uop_cache_hits", 0),
                c.get("uop_cache_hits", 0) + c.get("uop_cache_misses", 0)),
            "uopcache.misses": c.get("uop_cache_misses", 0) / rounds,
            "batch.run_s": total("batch.run"),
            "batch.rounds": c.get("batch_rounds", 0) / rounds,
            "service.submit_s": total("service.submit"),
            "service.lease_s": total("service.lease"),
            "service.complete_s": total("service.complete"),
            "service.fetch_s": total("service.fetch"),
            "service.warm_submit_s": total("service.warm_submit"),
            "service.jobs_run": c.get("jobs_run", 0) / rounds,
            "service.jobs_from_store": c.get("jobs_from_store", 0) / rounds,
            "stats.export_s": total("stats.export"),
            "trace.overhead_pct": overhead_pct,
        }
        for stage in STAGES:
            out[f"pipeline.{stage}_s"] = self.stage_seconds[stage] / rounds
        return {name: float(out[name]) for name, _, _ in LAYER_METRICS}

    def dump(self, path: Path, summary: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = dict(summary)
        document["layers"] = self.layer_times()
        document["spans"] = self.spans
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


@contextmanager
def instrument_campaign(probe: TraceProbe):
    """Trace the cores and batches the campaign builds out of reach."""
    import repro.sim.batch as batch_module

    real_core = batch_module.Core
    real_run = batch_module.BatchRunner.run

    def make_core(config=None, uop_cache=None):
        with probe.span("pipeline.build"):
            core = real_core(config, uop_cache=uop_cache)
        real_load = core.load

        def load(programs, commit_target: Optional[int] = None) -> None:
            with probe.span("pipeline.build"):
                real_load(programs, commit_target=commit_target)

        core.load = load
        probe.attach(core)
        probe.pending.append(core)
        return core

    def run(runner):
        rounds = [0]
        if runner.progress is None:
            def count(event) -> None:
                rounds[0] = event.rounds
            runner.progress = count
        with probe.span("batch.run"):
            points = real_run(runner)
        probe.add("batch_rounds", rounds[0])
        return points

    batch_module.Core = make_core
    batch_module.BatchRunner.run = run
    try:
        yield
    finally:
        batch_module.Core = real_core
        batch_module.BatchRunner.run = real_run
