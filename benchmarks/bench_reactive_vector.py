"""Benchmark: the feedback-coupled (reactive) vector kernels.

One perf bar guards the lockstep feedback loop added for the reactive
tier: the E6 reactive core (LOW-SENSING BACKOFF under a
``ReactiveTargetedJammer`` aimed at one victim packet, 24 replications
per jamming budget) through the vector backend vs the serial backend.
Before the reactive kernels existed this entire workload hit the serial
fallback, so the >= 3x bar pins the reactive tier to the fast path.

The measured speedup is printed (run with ``-s``) and the asserted bar can
be relaxed on noisy shared runners via ``BENCH_REACTIVE_SPEEDUP_TARGET`` —
the printed number keeps the acceptance criterion auditable while the hard
assertion does not flake on contended hardware.
"""

from __future__ import annotations

import os
import time

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import ReactiveTargetedJammer
from repro.core.low_sensing import LowSensingBackoff
from repro.exec import SerialBackend, VectorBackend
from repro.experiments.plan import SweepPlan, factory

#: Replications per jamming budget (matches the sensing benchmark, so the
#: two tiers' speedups are comparable).
REPLICATIONS = 24

#: The E6 reactive core at default scale: one victim, growing budgets.
BATCH_SIZE = 100
JAM_BUDGETS = (25, 100)

REACTIVE_SPEEDUP_TARGET = float(
    os.environ.get("BENCH_REACTIVE_SPEEDUP_TARGET", "3.0")
)


def build_reactive_plan() -> SweepPlan:
    """The E6 reactive core: one group per jamming budget."""
    seeds = list(range(1, REPLICATIONS + 1))
    plan = SweepPlan()
    for budget in JAM_BUDGETS:
        plan.add_group(
            LowSensingBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, BATCH_SIZE),
                factory(ReactiveTargetedJammer, budget=budget, target_index=0),
            ),
            seeds,
            columns={"n": BATCH_SIZE, "jam_budget": budget},
            max_slots=500_000,
        )
    return plan


def test_reactive_vector_speedup(benchmark):
    plan = build_reactive_plan()
    summary = plan.vector_summary()
    assert summary["vectorizable_specs"] == len(plan), (
        "the E6 reactive core must vectorize entirely; fallbacks: "
        f"{summary['fallback_groups']}"
    )

    vector_backend = VectorBackend()
    started = time.perf_counter()
    vector_results = benchmark.pedantic(
        lambda: plan.run(vector_backend), rounds=1, iterations=1, warmup_rounds=0
    )
    vector_seconds = time.perf_counter() - started

    started = time.perf_counter()
    serial_results = plan.run(SerialBackend())
    serial_seconds = time.perf_counter() - started

    # Same workload on both sides; the jamming budgets must be visible in
    # the outcomes on both engines.
    for vector_row, serial_row in zip(
        vector_results.group_rows(), serial_results.group_rows()
    ):
        assert vector_row["arrivals"] == serial_row["arrivals"]
        assert vector_row["drained"] == serial_row["drained"]

    reactive_speedup = serial_seconds / vector_seconds

    print(
        f"\nreactive core: vector {vector_seconds:.2f}s vs serial "
        f"{serial_seconds:.2f}s -> {reactive_speedup:.1f}x "
        f"(target >= {REACTIVE_SPEEDUP_TARGET}x) "
        f"[{len(plan)} runs across {len(JAM_BUDGETS)} budgets]"
    )
    assert reactive_speedup >= REACTIVE_SPEEDUP_TARGET, (
        f"reactive-tier vector speedup {reactive_speedup:.2f}x fell below "
        f"the {REACTIVE_SPEEDUP_TARGET}x acceptance bar"
    )
