"""Benchmark: VectorBackend vs SerialBackend on the E1 batch replication set.

Times the vectorizable core of E1's batch-arrival grid — the oblivious
baseline protocols (binary exponential, polynomial, genie-tuned fixed
probability) replicated over seeds, :func:`conftest.build_vector_core_plan`
— through both backends at the same replication count, and prints the
measured speedup.

The acceptance bar for the vector subsystem is a >= 5x speedup at this
replication count; the benchmark asserts it so regressions fail loudly.
On noisy shared machines (CI runners) the asserted bar can be relaxed via
``BENCH_VECTOR_SPEEDUP_TARGET`` — the *measured* speedup is always
printed (run with ``-s``), so the acceptance number stays auditable
while the hard assertion does not flake on contended hardware.
"""

from __future__ import annotations

import os
import time

from conftest import VECTOR_CORE_REPLICATIONS, build_vector_core_plan

from repro.exec import SerialBackend, VectorBackend

SPEEDUP_TARGET = float(os.environ.get("BENCH_VECTOR_SPEEDUP_TARGET", "5.0"))


def test_vector_backend_speedup(benchmark):
    plan = build_vector_core_plan()
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
        f"\nvector {vector_seconds:.2f}s vs serial {serial_seconds:.2f}s "
        f"-> {speedup:.1f}x (target >= {SPEEDUP_TARGET}x) "
        f"[{len(plan)} runs, {VECTOR_CORE_REPLICATIONS} replications/config]"
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"vector backend speedup {speedup:.2f}x fell below the "
        f"{SPEEDUP_TARGET}x acceptance bar"
    )
