"""Benchmark: telemetry overhead on the E1 vector core must be near-zero.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` twice — once with telemetry disabled (the
default NULL session) and once with an active :class:`TelemetrySession`
feeding a JSONL sink — and prints the enabled/disabled wall-clock ratio.

The observability contract is that instrumentation samples *outside* the
per-slot hot loop, so enabling it must cost almost nothing: the asserted
bar is a ratio <= 1.05x.  On contended CI hardware the bar can be relaxed
via ``BENCH_TELEMETRY_OVERHEAD_TARGET``; the measured ratio is always
printed (run with ``-s``) so the acceptance number stays auditable.
"""

from __future__ import annotations

import os

from conftest import build_vector_core_plan, build_warm_up_plan, time_vector_plan

from repro.telemetry import JsonlSink, TelemetrySession, activated

#: Enabled/disabled wall-clock ratio the disabled-path contract allows.
OVERHEAD_TARGET = float(os.environ.get("BENCH_TELEMETRY_OVERHEAD_TARGET", "1.05"))

#: Timed rounds per mode; the minimum is reported to shed scheduler noise.
ROUNDS = 3


def test_telemetry_overhead(benchmark, tmp_path):
    plan = build_vector_core_plan()
    jsonl = tmp_path / "bench-telemetry.jsonl"

    def disabled():
        return activated(None)

    def enabled():
        return activated(TelemetrySession([JsonlSink(jsonl)]))

    # Warm both paths once so imports/allocator state don't bias either side.
    warm = build_warm_up_plan()
    time_vector_plan(warm, ROUNDS, disabled)
    time_vector_plan(warm, ROUNDS, enabled)

    disabled_seconds = benchmark.pedantic(
        lambda: time_vector_plan(plan, ROUNDS, disabled),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds = time_vector_plan(plan, ROUNDS, enabled)

    ratio = enabled_seconds / disabled_seconds
    print(
        f"\ntelemetry enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(target <= {OVERHEAD_TARGET}x) [{len(plan)} runs]"
    )
    assert ratio <= OVERHEAD_TARGET, (
        f"telemetry overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_TARGET}x acceptance bar"
    )
