"""Benchmark: telemetry overhead on the E1 vector core must be near-zero.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` with telemetry disabled (the default NULL
session) and with an active :class:`TelemetrySession` feeding a JSONL sink,
in alternating pairs, and prints the median enabled/disabled wall-clock
ratio with its quartiles and a 95% confidence interval.

The observability contract is that instrumentation samples *outside* the
per-slot hot loop, so enabling it must cost almost nothing: the asserted
bar is a median ratio <= 1.05x.  On contended CI hardware the bar can be relaxed
via ``BENCH_TELEMETRY_OVERHEAD_TARGET``; the measured ratio is always
printed (run with ``-s``) so the acceptance number stays auditable.
"""

from __future__ import annotations

import os

from conftest import (
    assert_overhead,
    build_vector_core_plan,
    build_warm_up_plan,
    paired_overhead,
    time_vector_plan,
)

from repro.telemetry import JsonlSink, TelemetrySession, activated

#: Enabled/disabled wall-clock ratio the disabled-path contract allows.
OVERHEAD_TARGET = float(os.environ.get("BENCH_TELEMETRY_OVERHEAD_TARGET", "1.05"))

#: Warm-up runs per mode.
WARM_UP_ROUNDS = 3


def test_telemetry_overhead(benchmark, tmp_path):
    plan = build_vector_core_plan()
    jsonl = tmp_path / "bench-telemetry.jsonl"

    def disabled():
        return activated(None)

    def enabled():
        return activated(TelemetrySession([JsonlSink(jsonl)]))

    # Warm both paths so imports/allocator state don't bias either side.
    warm = build_warm_up_plan()
    for _ in range(WARM_UP_ROUNDS):
        time_vector_plan(warm, disabled)
        time_vector_plan(warm, enabled)

    ratios = benchmark.pedantic(
        lambda: paired_overhead((plan, disabled), (plan, enabled)),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert_overhead("telemetry", ratios, OVERHEAD_TARGET, len(plan))
