"""Workloads, timed rounds and correctness checks of the benchmark.

A run repeats *rounds* of one workload until its time is up.  Every
round of a run does the same simulations, so per-round host figures are
samples of one quantity and their median is steady; the simulated
statistics of a round repeat exactly.  Everything simulated is checked
against a computation made apart from the simulated pipeline:

* ``suite-rec`` and ``mix4-smt``: for every program of every point, the
  committed memory image equals a fresh :class:`Emulator` replay of the
  same number of instructions, and the program reached its commit
  target;
* ``campaign``: the seed-drawn point, recomputed serially with
  :func:`run_spec`, has identical simulated statistics (decoded-uop
  cache counters excepted, since batch siblings share that cache); the
  warm resubmit runs no job and returns the cold documents; every round
  returns the documents of the first;
* every point: ``0 < IPC <= commit width``.

A point that raises or fails a check counts as failed; the rest of the
run goes on.
"""

from __future__ import annotations

import contextlib
import json
import random
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("suite-rec", "mix4-smt", "campaign")

#: Decoded-uop-cache fields of ``SimStats``: lockstep batch siblings share
#: one decode store, so these may differ from a serial run by design.
UOP_CACHE_FIELDS = (
    "uop_cache_hits",
    "uop_cache_misses",
    "uop_cache_evictions",
    "decode_counts",
    "uop_cache_hits_by_class",
)


@dataclass(frozen=True)
class Sizes:
    """How much work one round of each workload does."""

    suite_target: int  # commits per kernel, suite-rec
    mix_target: int  # commits per program, mix4-smt
    campaign_kernels: Tuple[str, ...]
    campaign_grid: Dict[str, List[int]]
    campaign_target: int  # commits per point, campaign
    lease_size: int  # tasks leased (and lockstep-batched) at once


FULL = Sizes(
    suite_target=5000,
    mix_target=2000,
    campaign_kernels=("compress", "go", "li", "tomcatv"),
    campaign_grid={"active_list_size": [32, 128], "confidence_threshold": [4, 12]},
    campaign_target=1500,  # the Sweep default
    lease_size=8,
)

#: Tiny windows for the smoke tests: every code path, in seconds.
SMOKE = Sizes(
    suite_target=150,
    mix_target=100,
    campaign_kernels=("compress", "go"),
    campaign_grid={"active_list_size": [32, 64]},
    campaign_target=150,
    lease_size=2,
)


#: Seconds one calibration takes at the reference host speed: the
#: figures are host time on a machine where :func:`calibrate` takes this
#: long (close to its median on the machine the README's figures come
#: from).
CALIBRATION_REFERENCE_S = 0.005

#: Host seconds between calibrations inside a timed region.
CALIBRATION_INTERVAL_S = 0.05


class _CalNode:
    __slots__ = ("a", "b")

    def __init__(self, a: int) -> None:
        self.a = a
        self.b = a & 7


_CAL_POOL_BITS = 17
_cal_pool: List[_CalNode] = []
_cal_table: Dict[int, int] = {}


def calibrate(iterations: int = 3500) -> float:
    """Host seconds for a fixed pure-Python loop shaped like the
    simulator's work: slotted objects picked at random from a pool of
    about 16 MB, attribute reads and writes, dict probes, list appends
    and pops.  Its time tracks the host's momentary speed, which on a
    shared virtual machine varies by up to 1.8x from one second to the
    next.  A loop with a small working set tracks it worse: neighbours
    slow the simulator mostly through the caches it shares with them."""
    if not _cal_pool:
        _cal_pool.extend(_CalNode(i) for i in range(1 << _CAL_POOL_BITS))
        _cal_table.update(((i * 7919) & 0xFFFFF, i) for i in range(1 << 16))
    mask = (1 << _CAL_POOL_BITS) - 1
    pool, table, window = _cal_pool, _cal_table, []
    x, acc = 12345, 0
    started = time.perf_counter()
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        node = pool[x & mask]
        node.a = (node.a + x) & 0xFFFF
        hit = table.get(x & 0xFFFFF)
        if hit is not None:
            acc += hit
        window.append(node)
        if len(window) > 32:
            window.pop(0)
        acc ^= node.b
    return time.perf_counter() - started


def calibration_mark() -> Tuple[float, float, float]:
    """(start, end, calibration seconds) of one calibration."""
    started = time.perf_counter()
    seconds = calibrate()
    return started, time.perf_counter(), seconds


def scaled_seconds(marks) -> Tuple[float, float]:
    """Host seconds between consecutive calibration marks, raw and scaled
    to the reference speed by the mean of the two calibrations."""
    raw = scaled = 0.0
    for (_, end0, cal0), (start1, _, cal1) in zip(marks, marks[1:]):
        span = start1 - end0
        raw += span
        scaled += span * 2.0 * CALIBRATION_REFERENCE_S / (cal0 + cal1)
    return raw, scaled


class Meter:
    """Wall time of a round's timed segments, plus the same time scaled
    to the reference host speed.

    A one-shot interval timer interrupts a running segment every
    :data:`CALIBRATION_INTERVAL_S` to run the calibration loop; its own
    time is left out of the segment, and each stretch between two
    calibrations is scaled by the reference time over their mean.
    Slowdowns of the shared host then cancel, while a change to the
    simulator's own speed does not.  The simulator never sees the
    timer: the handler touches none of its state.

    The loop's pool evicts the simulator's cached data, which costs the
    timed work about 5%, the same in every run.  With ``interval=None``
    the loop runs only at the segment's ends; traced runs use that for
    all their rounds, since spans must not absorb calibrations and the
    untraced rounds they are compared with must bear the same cost.
    """

    def __init__(self, interval: Optional[float] = CALIBRATION_INTERVAL_S) -> None:
        self.wall = 0.0
        self.scaled = 0.0
        self.interval = interval
        self._marks: list = []
        self._running = False

    def start(self) -> None:
        self._marks = [calibration_mark()]
        if self.interval is not None:
            self._running = True
            signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def _on_alarm(self, signum, frame) -> None:
        if self._running:
            self._marks.append(calibration_mark())
            signal.setitimer(signal.ITIMER_REAL, self.interval)

    def stop(self) -> None:
        if self._running:
            self._running = False
            signal.setitimer(signal.ITIMER_REAL, 0)
            # An alarm already pending is dropped rather than terminating.
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._marks.append(calibration_mark())
        wall, scaled = scaled_seconds(self._marks)
        self.wall += wall
        self.scaled += scaled


class CheckFailed(Exception):
    """A simulated result disagrees with its independent computation."""


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ======================================================================
# Set-up: imports, suite assembly, and (campaign) store + scheduler
# ======================================================================
@dataclass
class Context:
    workload: str
    sizes: Sizes
    workdir: Path
    import_s: float = 0.0
    assemble_s: float = 0.0
    suite: object = None
    specs: list = field(default_factory=list)  # RunSpecs (direct workloads)
    campaign: Optional[dict] = None  # sweep document (campaign)
    jobs: list = field(default_factory=list)  # its parsed Jobs, in job order
    check_index: int = 0  # campaign point recomputed for the check
    rng: Optional[random.Random] = None
    store_dir: Optional[Path] = None
    scheduler: object = None


def prepare(workload: str, seed: int, sizes: Sizes, workdir: Path) -> Context:
    """Everything before the first timed call; ``setup_s`` measures it."""
    ctx = Context(workload=workload, sizes=sizes, workdir=workdir)
    started = time.perf_counter()
    from repro.sim.runner import RunSpec
    from repro.workloads.suite import WorkloadSuite

    if workload == "campaign":
        from repro.exec.jobs import suite_for_args
        from repro.service.spec import parse_campaign, sweep_spec

        # Modules the timed region calls into, imported here so their
        # import cost lands in set-up, not in the first round.
        import repro.service.scheduler  # noqa: F401
        import repro.service.worker  # noqa: F401
        import repro.stats.export  # noqa: F401
    else:
        import repro.emulator.emulator  # noqa: F401
        import repro.pipeline.core  # noqa: F401
    ctx.import_s = time.perf_counter() - started

    ctx.rng = random.Random(seed)
    started = time.perf_counter()
    if workload == "suite-rec":
        ctx.suite = WorkloadSuite()
        ctx.specs = [
            RunSpec(workload=(name,), machine="big.2.16", features="REC/RS/RU",
                    commit_target=sizes.suite_target)
            for name in ctx.suite.names
        ]
    elif workload == "mix4-smt":
        ctx.suite = WorkloadSuite()
        # The paper's eight rotations; the seed draws which cyclic slot
        # rotation of each runs (programs land in other relocation slots
        # and commit in another order), keeping every kernel weighted
        # evenly so that seeds do not move the round's make-up.
        specs = []
        for mix in ctx.suite.mixes(4):
            k = ctx.rng.randrange(len(mix))
            specs.append(RunSpec(workload=tuple(mix[k:] + mix[:k]), machine="big.2.16",
                                 features="SMT", commit_target=sizes.mix_target))
        ctx.specs = specs
    elif workload == "campaign":
        ctx.campaign = sweep_spec(
            workloads=list(sizes.campaign_kernels), grid=sizes.campaign_grid,
            machine="big.2.16", features="REC/RS/RU",
            commit_target=sizes.campaign_target, label="perfbench",
        )
        spec = parse_campaign(ctx.campaign)
        ctx.jobs = list(spec.jobs)
        ctx.check_index = ctx.rng.randrange(len(ctx.jobs))
        ctx.suite = suite_for_args(*spec.suite_args)
        ctx.suite.fingerprint()
    else:
        raise ValueError(f"unknown workload {workload!r}; know {list(WORKLOADS)}")
    for spec in ctx.specs:
        ctx.suite.mix(spec.workload)
    for job in ctx.jobs:
        ctx.suite.mix(job.spec.workload)
    ctx.assemble_s = time.perf_counter() - started
    if workload == "campaign":
        ctx.store_dir, ctx.scheduler = fresh_scheduler(workdir)
    return ctx


def fresh_scheduler(workdir: Path):
    """A new artifact store in a fresh directory, and a scheduler over it."""
    from repro.service.scheduler import Scheduler
    from repro.service.store import ArtifactStore

    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = Path(tempfile.mkdtemp(prefix="store-", dir=workdir))
    # One attempt: a point that fails counts once, and is not retried.
    return store_dir, Scheduler(ArtifactStore(store_dir), max_attempts=1)


# ======================================================================
# Rounds
# ======================================================================
@dataclass
class Round:
    """One round's work, timing and per-point outcomes."""

    wall: float = 0.0  # host seconds of the timed region
    scaled_wall: float = 0.0  # the same, at the reference host's speed
    points: int = 0
    failed: int = 0
    committed: int = 0
    ipcs: Dict[str, float] = field(default_factory=dict)  # point -> IPC
    cycles: Dict[str, int] = field(default_factory=dict)  # point -> cycles
    docs: List[Optional[str]] = field(default_factory=list)  # campaign, job order
    run_level_errors: List[str] = field(default_factory=list)
    jobs_run: int = 0
    jobs_from_store: int = 0

    def fail(self, what: str, exc: Exception) -> None:
        self.failed += 1
        log(f"{what} failed: {type(exc).__name__}: {exc}")


class NullProbe:
    """Probe interface with every hook a no-op (the untraced path)."""

    def __init__(self, interval: Optional[float] = CALIBRATION_INTERVAL_S) -> None:
        self.interval = interval

    def meter(self) -> Meter:
        return Meter(self.interval)

    def span(self, name: str):
        return contextlib.nullcontext()

    def attach(self, core) -> None:
        pass

    def absorb(self, core) -> None:
        pass

    def absorb_pending(self) -> None:
        pass

    def replayed(self, instructions: int) -> None:
        pass

    def time_export(self, spec, core) -> None:
        pass

    def time_replay(self, program, instructions: int) -> None:
        pass


def replay_memory(program, instructions: int):
    """Memory image after a fresh golden-emulator replay of ``instructions``."""
    from repro.emulator.emulator import Emulator

    emulator = Emulator(program)
    executed = emulator.run(instructions)
    if executed != instructions:
        raise CheckFailed(f"{program.name}: emulator halted after {executed} "
                          f"of {instructions} instructions")
    return emulator.state.memory


def check_direct_point(core, spec, probe) -> None:
    """Committed memory images against emulator replays; targets; IPC."""
    for instance in core.instances:
        if instance.committed < spec.commit_target:
            raise CheckFailed(f"{instance.name}: committed {instance.committed} "
                              f"< target {spec.commit_target}")
        with probe.span("emulator.replay"):
            image = replay_memory(instance.program, instance.committed)
        probe.replayed(instance.committed)
        if image != instance.memory:
            raise CheckFailed(f"{instance.name}: committed memory image differs from "
                              f"an emulator replay of {instance.committed} instructions")
    check_ipc(core.stats.ipc, core.config.commit_width)


def check_ipc(ipc: float, commit_width: int) -> None:
    if not 0.0 < ipc <= commit_width:
        raise CheckFailed(f"IPC {ipc!r} outside (0, {commit_width}]")


def direct_round(ctx: Context, probe=None) -> Round:
    """One pass over the workload's points, in a seed-drawn order."""
    from repro.pipeline.core import Core

    probe = probe or NullProbe()
    out = Round()
    meter = probe.meter()
    order = list(ctx.specs)
    ctx.rng.shuffle(order)
    for spec in order:
        label = "+".join(spec.workload)
        out.points += 1
        meter.start()
        try:
            with probe.span("point"):
                with probe.span("pipeline.build"):
                    core = Core(spec.build_config())
                    core.load(ctx.suite.mix(spec.workload), commit_target=spec.commit_target)
                probe.attach(core)
                with probe.span("pipeline.run"):
                    stats = core.run(max_cycles=spec.max_cycles)
        except Exception as exc:  # noqa: BLE001 - one failed point must not stop the run
            meter.stop()
            out.fail(f"{ctx.workload} point {label}", exc)
            continue
        meter.stop()
        probe.absorb(core)
        try:
            with probe.span("check"):
                check_direct_point(core, spec, probe)
        except Exception as exc:  # noqa: BLE001 - a failed check fails only its point
            out.fail(f"{ctx.workload} point {label}", exc)
            continue
        probe.time_export(spec, core)
        out.committed += stats.committed
        out.ipcs[label] = stats.ipc
        out.cycles[label] = stats.cycles
    out.wall, out.scaled_wall = meter.wall, meter.scaled
    return out


def campaign_round(ctx: Context, reference: Optional[Round], probe=None,
                   execute: Optional[Callable] = None) -> Round:
    """Submit the sweep, lease and run it in batches, fetch every result,
    then resubmit it warm; a fresh store for the next round afterwards.

    ``execute`` replaces :func:`execute_task_batch` (fault-injection tests).
    """
    from repro.service.worker import execute_task_batch

    probe = probe or NullProbe()
    execute = execute or execute_task_batch
    scheduler = ctx.scheduler
    out = Round()
    payloads: List[Optional[dict]] = []
    meter = probe.meter()
    meter.start()
    with probe.span("service.submit"):
        status = scheduler.submit(ctx.campaign)
    job_ids = [job["id"] for job in status["jobs"]]
    while True:
        with probe.span("service.lease"):
            tasks = scheduler.lease(ctx.sizes.lease_size, worker="perfbench")
        if not tasks:
            break
        with probe.span("worker.execute"):
            results = execute(tasks)
        probe.absorb_pending()
        for task in tasks:
            state, body = results[task["key"]]
            with probe.span("service.complete"):
                if state == "ok":
                    scheduler.complete(task["key"], body, worker="perfbench")
                else:
                    scheduler.fail(task["key"], str(body), worker="perfbench")
    for job_id in job_ids:
        with probe.span("service.fetch"):
            _, payload = scheduler.job_result(job_id)
        payloads.append(payload)
        out.docs.append(None if payload is None else export(payload, probe))
    meter.stop()
    out.wall, out.scaled_wall = meter.wall, meter.scaled
    out.jobs_run = scheduler.counters["jobs_run"]

    with probe.span("service.warm_submit"):
        warm = scheduler.submit(ctx.campaign)
    out.jobs_from_store = scheduler.counters["jobs_from_store"]
    if scheduler.counters["jobs_run"] != out.jobs_run:
        out.run_level_errors.append("warm resubmit ran a job")
    warm_docs = []
    for job in warm["jobs"]:
        _, payload = scheduler.job_result(job["id"])
        stored = job["resolution"] == "store" and payload is not None
        warm_docs.append(export(payload, NullProbe()) if stored else None)

    for index, job in enumerate(ctx.jobs):
        out.points += 1
        try:
            doc_text = out.docs[index]
            if doc_text is None:
                raise CheckFailed(f"no result: {job_error(scheduler, job_ids[index])}")
            doc = json.loads(doc_text)
            check_ipc(doc["ipc"], job.resolved_config().commit_width)
            for program, entry in doc["stats"]["per_instance"].items():
                if entry["committed"] < job.spec.commit_target:
                    raise CheckFailed(f"program {program} committed "
                                      f"{entry['committed']} < {job.spec.commit_target}")
            if warm_docs[index] != doc_text:
                raise CheckFailed("warm resubmit returned another document")
            if reference is not None:
                if reference.docs[index] != doc_text:
                    raise CheckFailed("document differs from the first round's")
            elif index == ctx.check_index:
                check_recomputed(ctx, job, payloads[index])
        except Exception as exc:  # noqa: BLE001 - one failed point must not stop the run
            out.fail(f"campaign point {job.label()}", exc)
            continue
        out.committed += doc["stats"]["committed"]
        out.ipcs[f"{index:03d}"] = doc["ipc"]
        out.cycles[f"{index:03d}"] = doc["stats"]["cycles"]
        probe.time_replay(ctx.suite.program(job.spec.workload[0]),
                          doc["stats"]["per_instance"]["0"]["committed"])
    shutil.rmtree(ctx.store_dir, ignore_errors=True)
    ctx.store_dir, ctx.scheduler = fresh_scheduler(ctx.workdir)
    return out


def export(payload: dict, probe) -> str:
    """The result document a client fetches, as it crosses the wire."""
    from repro.exec.jobs import result_from_payload
    from repro.stats.export import run_result_to_dict

    with probe.span("stats.export"):
        return json.dumps(run_result_to_dict(result_from_payload(payload)), sort_keys=True)


def job_error(scheduler, job_id: str) -> str:
    record, _ = scheduler.job_result(job_id)
    return "unknown job" if record is None else f"{record.state}: {record.error}"


def check_recomputed(ctx: Context, job, payload: dict) -> None:
    """The drawn point, rerun serially outside the service and the batch,
    must have identical simulated statistics."""
    from repro.exec.jobs import stats_to_payload
    from repro.sim.runner import run_spec

    result = run_spec(job.spec, ctx.suite, config=job.resolved_config())
    serial = stats_to_payload(result.stats)
    served = payload["stats"]
    differ = sorted(name for name in serial
                    if name not in UOP_CACHE_FIELDS and serial[name] != served.get(name))
    if differ:
        raise CheckFailed(f"recomputed point {job.label()} differs in {differ}")
    if result.per_program_ipc != payload["per_program_ipc"]:
        raise CheckFailed(f"recomputed point {job.label()} differs in per-program IPC")


def run_round(ctx: Context, reference: Optional[Round], probe=None) -> Round:
    if ctx.workload == "campaign":
        return campaign_round(ctx, reference, probe)
    return direct_round(ctx, probe)


def cleanup(ctx: Context) -> None:
    if ctx.store_dir is not None:
        shutil.rmtree(ctx.store_dir, ignore_errors=True)
        ctx.store_dir = None
