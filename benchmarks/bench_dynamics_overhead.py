"""Benchmark: dynamics sampling overhead on the E1 vector core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_vector_backend.py`` with dynamics off (``dynamics_window=0``, the
default) and sampling a windowed trajectory per run, in alternating pairs,
and prints the median enabled/disabled wall-clock ratio with its quartiles
and a 95% confidence interval.

The dynamics contract mirrors telemetry's: sampling stays off the per-slot
hot path (a cheap accumulator on the scalar engine; on the vector engine,
one sample per row as it crosses each window end, and counts recovered
from the slot recorder after the loop), and it must not change which loop
a batch runs, so enabling it must cost almost nothing and the disabled
path must cost exactly nothing.  The asserted bar is a median ratio
<= 1.05x; on contended CI hardware it can be relaxed via
``BENCH_DYNAMICS_OVERHEAD_TARGET``, and the measured ratio is always
printed (run with ``-s``) so the acceptance number stays auditable.
"""

from __future__ import annotations

import contextlib
import os

from conftest import (
    assert_overhead,
    build_vector_core_plan,
    build_warm_up_plan,
    paired_overhead,
    time_vector_plan,
)

#: Sampling interval for the enabled side of the comparison.
DYNAMICS_WINDOW = 500

#: Enabled/disabled wall-clock ratio the off-hot-path contract allows.
OVERHEAD_TARGET = float(os.environ.get("BENCH_DYNAMICS_OVERHEAD_TARGET", "1.05"))

#: Warm-up runs per mode.
WARM_UP_ROUNDS = 3


def test_dynamics_overhead(benchmark):
    disabled_plan = build_vector_core_plan()
    enabled_plan = build_vector_core_plan(DYNAMICS_WINDOW)

    # Warm both paths so imports/allocator state don't bias either side.
    for _ in range(WARM_UP_ROUNDS):
        time_vector_plan(build_warm_up_plan())
        time_vector_plan(build_warm_up_plan(DYNAMICS_WINDOW))

    ratios = benchmark.pedantic(
        lambda: paired_overhead(
            (disabled_plan, contextlib.nullcontext),
            (enabled_plan, contextlib.nullcontext),
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert_overhead("dynamics", ratios, OVERHEAD_TARGET, len(disabled_plan))
