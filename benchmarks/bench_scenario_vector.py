"""Benchmark: vector vs serial on a piecewise-constant catalog scenario.

Times the vectorizable core of the ``ramp-down-jamming`` catalog scenario
(a 100-packet batch under Bernoulli jamming that decays through
piecewise-constant schedule phases) through the vector and serial backends
at 24 replications per protocol, and prints the measured speedup.

Only the scenario's vectorizable protocol groups are timed — the point of
the benchmark is the schedule-aware kernel path, not the scalar fallback.
As with ``bench_vector_backend.py``, the asserted bar can be relaxed on
noisy shared runners via ``BENCH_SCENARIO_SPEEDUP_TARGET`` while the
measured speedup is always printed (run with ``-s``).
"""

from __future__ import annotations

import dataclasses
import os
import time

from repro.exec import SerialBackend, VectorBackend
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import build_plan

SCENARIO_ID = "ramp-down-jamming"

#: Replications per protocol group; the speedup target is defined at this
#: replication count (vector cost is nearly flat in it, serial is linear).
REPLICATIONS = 24

SPEEDUP_TARGET = float(os.environ.get("BENCH_SCENARIO_SPEEDUP_TARGET", "3.0"))


def build_vectorizable_plan():
    """The scenario's plan restricted to its vectorizable protocol groups.

    The timed plan is built by the same :func:`repro.scenarios.runner.build_plan`
    that ``scenario run`` uses (on a copy of the scenario whose protocol
    list keeps only the vectorizable groups), so the benchmark times
    exactly the workload the CLI would execute.
    """
    scenario = get_scenario(SCENARIO_ID)
    seeds = [scenario.base_seed + index for index in range(REPLICATIONS)]
    probe = build_plan(scenario, scale="default", seeds=[seeds[0]])
    fallback_groups = probe.vector_summary()["fallback_groups"]
    kept = [
        scenario.protocols[group.group_id]
        for group in probe.groups
        if group.group_id not in fallback_groups
    ]
    timed = dataclasses.replace(scenario, protocols=tuple(kept)) if kept else scenario
    plan = build_plan(timed, scale="default", seeds=seeds)
    return scenario, plan, kept


def test_scenario_vector_speedup(benchmark):
    scenario, plan, protocols = build_vectorizable_plan()
    assert protocols, "scenario has no vectorizable protocol group"
    assert plan.vector_summary()["vectorizable_specs"] == len(plan)

    vector_backend = VectorBackend()
    started = time.perf_counter()
    vector_results = benchmark.pedantic(
        lambda: plan.run(vector_backend), rounds=1, iterations=1, warmup_rounds=0
    )
    vector_seconds = time.perf_counter() - started

    started = time.perf_counter()
    serial_results = plan.run(SerialBackend())
    serial_seconds = time.perf_counter() - started

    # Same workload on both sides (statistically equivalent outcomes).
    for vector_row, serial_row in zip(
        vector_results.group_rows(), serial_results.group_rows()
    ):
        assert vector_row["arrivals"] == serial_row["arrivals"]
        assert vector_row["drained"] == serial_row["drained"]

    speedup = serial_seconds / vector_seconds
    print(
        f"\n{scenario.scenario_id}: vector {vector_seconds:.2f}s vs serial "
        f"{serial_seconds:.2f}s -> {speedup:.1f}x (target >= {SPEEDUP_TARGET}x) "
        f"[{len(plan)} runs, {REPLICATIONS} replications/protocol]"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"scenario vector speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_TARGET}x acceptance bar"
    )
