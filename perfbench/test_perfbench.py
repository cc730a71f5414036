"""Smoke-size self-test of the benchmark: ``python3 -m pytest perfbench -q``.

Runs every workload at tiny sizes through the real command line, checks the
printed metrics against ``BENCHMARK.json``, checks the traced run's time
accounting, and checks that a corrupted result counts as a failed run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, trace) -> (exit status, last-line JSON), each run once."""
    cache: dict[tuple[str, int], tuple[int, dict]] = {}

    def run(workload: str, trace: int) -> tuple[int, dict]:
        if (workload, trace) not in cache:
            completed = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "0", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            cache[workload, trace] = (completed.returncode, result)
        return cache[workload, trace]

    return run


def test_workload_names_match_the_spec():
    assert tuple(workload["name"] for workload in SPEC["workloads"]) == WORKLOAD_NAMES
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_workload_runs_and_prints_every_metric(smoke_runs, workload, trace):
    status, result = smoke_runs(workload, trace)
    assert status == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in expected
    }


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_self_times_and_residual_sum_to_the_wall(smoke_runs, workload):
    _, result = smoke_runs(workload, 1)
    metrics = {name: value["value"] for name, value in result["metrics"].items()}
    self_times = sum(value for name, value in metrics.items() if name.startswith("layer."))
    wall = metrics["trace.wall_s"]
    assert self_times + metrics["trace.residual_s"] == pytest.approx(wall, rel=1e-9)
    assert metrics["trace.coverage"] >= 0.9


def test_the_clock_samples_the_host_inside_the_region_and_leaves_the_samples_out():
    clock = workloads.Clock()
    with clock:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    inside = clock.samples[1:-1]
    assert len(inside) >= 0.3 / workloads.SAMPLE_INTERVAL_S / 2
    assert clock.seconds + sum(inside) == pytest.approx(0.3, abs=0.01)
    assert clock.reference_seconds > 0


def _corrupt_sends(result):
    result.collector.total_sends += 1


def _corrupt_departure(result):
    packet = result.packets[0]
    result.packets[0] = type(packet)(
        packet.packet_id, packet.arrival_slot, packet.arrival_slot - 1, packet.sends, packet.listens
    )


def _corrupt_drain(result):
    result.drained = False


@pytest.mark.parametrize("corrupt", [_corrupt_sends, _corrupt_departure, _corrupt_drain, None])
def test_a_corrupted_result_counts_as_a_failed_run(corrupt):
    from repro.exec import VectorBackend

    workload = workloads.smoke_workload("lsb-batch")
    results = workload.inputs(seed=5, index=0).run(VectorBackend()).results
    clean = workloads.tally_groups([("vector", "g", results)], must_drain=True)
    assert (clean.attempted, clean.failed) == (2, 0)
    if corrupt is None:
        results[0] = None  # an artifact that could not be read back
    else:
        corrupt(results[0])
    tally = workloads.tally_groups([("vector", "g", results)], must_drain=True)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.violations
    assert tally.live_packet_slots < clean.live_packet_slots
