"""The benchmark's own tests: smoke runs of every workload, and fault
injections proving that its correctness checks are live.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def run_cli(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected}


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(entry) for entry in tracing.LAYER_METRICS]


def test_corrupted_word_in_replayed_image_fails_one_point(monkeypatch, tmp_path):
    ctx = harness.prepare("suite-rec", 7, harness.SMOKE, tmp_path)
    real_replay = harness.replay_memory
    corrupted = []

    def corrupt_first(program, instructions):
        image = real_replay(program, instructions)
        if not corrupted:
            address, bits = next(iter(image.nonzero_words()))
            image.write64(address, bits ^ 1)
            corrupted.append(program.name)
        return image

    monkeypatch.setattr(harness, "replay_memory", corrupt_first)
    rnd = harness.direct_round(ctx)
    assert corrupted
    assert (rnd.points, rnd.failed) == (len(ctx.specs), 1)
    assert corrupted[0] not in rnd.ipcs  # the failed point reports nothing
    assert len(rnd.ipcs) == len(ctx.specs) - 1


def test_altered_campaign_payload_fails_one_point(tmp_path):
    from repro.service.worker import execute_task_batch

    ctx = harness.prepare("campaign", 7, harness.SMOKE, tmp_path)
    target = ctx.jobs[ctx.check_index].label()

    def execute_and_alter(tasks):
        results = execute_task_batch(tasks)
        for task in tasks:
            if task["label"] == target:
                state, body = results[task["key"]]
                body["stats"]["cycles"] += 1
        return results

    try:
        rnd = harness.campaign_round(ctx, None, execute=execute_and_alter)
    finally:
        harness.cleanup(ctx)
    assert (rnd.points, rnd.failed) == (len(ctx.jobs), 1)
    assert not rnd.run_level_errors


def test_failed_point_does_not_stop_the_round(monkeypatch, tmp_path):
    from repro.pipeline.core import Core, SimulationError

    ctx = harness.prepare("mix4-smt", 7, harness.SMOKE, tmp_path)
    real_run = Core.run
    calls = []

    def deadlock_once(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise SimulationError("no commits for 20000 cycles (injected)")
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(Core, "run", deadlock_once)
    rnd = harness.direct_round(ctx)
    assert (rnd.points, rnd.failed) == (len(ctx.specs), 1)
    assert len(rnd.ipcs) == len(ctx.specs) - 1


def test_without_the_simulator_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = run_cli("--workload", "suite-rec", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_meter_excludes_calibration_and_scales_by_it():
    marks = [(0.0, 0.005, 0.005), (0.105, 0.115, 0.010), (0.215, 0.220, 0.005)]
    raw, scaled = harness.scaled_seconds(marks)
    assert raw == pytest.approx(0.2)
    # Each 0.1 s stretch ran at two thirds of the reference speed.
    assert scaled == pytest.approx(0.2 * 2 / 3)
