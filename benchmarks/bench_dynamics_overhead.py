"""Benchmark: dynamics sampling overhead on the E1 vector core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` twice — once with dynamics off
(``dynamics_window=0``, the default) and once sampling a windowed
trajectory per run — and prints the enabled/disabled wall-clock ratio.

The dynamics contract mirrors telemetry's: sampling happens *outside*
the per-slot hot loop (a cheap accumulator on the scalar engine, a
post-loop materialisation on the vector engine), so enabling it must
cost almost nothing and the disabled path must cost exactly nothing.
The asserted bar is a ratio <= 1.05x; on contended CI hardware it can
be relaxed via ``BENCH_DYNAMICS_OVERHEAD_TARGET``, and the measured
ratio is always printed (run with ``-s``) so the acceptance number stays
auditable.
"""

from __future__ import annotations

import os

from conftest import build_vector_core_plan, build_warm_up_plan, time_vector_plan

#: Sampling interval for the enabled side of the comparison.
DYNAMICS_WINDOW = 500

#: Enabled/disabled wall-clock ratio the off-hot-path contract allows.
OVERHEAD_TARGET = float(os.environ.get("BENCH_DYNAMICS_OVERHEAD_TARGET", "1.05"))

#: Timed rounds per mode; the minimum is reported to shed scheduler noise.
ROUNDS = 3


def test_dynamics_overhead(benchmark):
    disabled_plan = build_vector_core_plan()
    enabled_plan = build_vector_core_plan(DYNAMICS_WINDOW)

    # Warm both paths once so imports/allocator state don't bias either side.
    time_vector_plan(build_warm_up_plan(), ROUNDS)
    time_vector_plan(build_warm_up_plan(DYNAMICS_WINDOW), ROUNDS)

    disabled_seconds = benchmark.pedantic(
        lambda: time_vector_plan(disabled_plan, ROUNDS),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds = time_vector_plan(enabled_plan, ROUNDS)

    ratio = enabled_seconds / disabled_seconds
    print(
        f"\ndynamics enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(target <= {OVERHEAD_TARGET}x) [{len(disabled_plan)} runs]"
    )
    assert ratio <= OVERHEAD_TARGET, (
        f"dynamics overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_TARGET}x acceptance bar"
    )
