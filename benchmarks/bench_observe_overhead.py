"""Benchmark: the full observe stack must cost <= 1.05x on the E1 core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_telemetry_overhead.py`` bare (NULL session) and with what
``repro.observe`` adds to a run's telemetry active at the same time: a
JSONL sink and a :class:`ResourceSampler` polling ``/proc`` on a tight
interval, whose samples ``telemetry summarize`` folds afterwards.  The two
alternate in pairs, and the median enabled/disabled wall-clock ratio is
printed with its quartiles and a 95% confidence interval.

The sampler inherits telemetry's contract: it only ever *reads* monotonic
clocks and ``/proc``, so stacking it on must stay inside the same <= 1.05x
bar the base instrumentation meets.
On contended CI hardware the bar can be relaxed via
``BENCH_OBSERVE_OVERHEAD_TARGET``; the measured ratio is always printed
(run with ``-s``) so the acceptance number stays auditable.
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

from repro.observe import ResourceSampler
from repro.telemetry import JsonlSink, TelemetrySession, activated

#: Enabled/disabled wall-clock ratio the observe stack may cost.
OVERHEAD_TARGET = float(os.environ.get("BENCH_OBSERVE_OVERHEAD_TARGET", "1.05"))

#: Resource-sampler poll interval; deliberately much tighter than the
#: 0.25s default so the bar covers a worst-case sampling cadence.
SAMPLE_INTERVAL = 0.05

#: Warm-up runs per mode.
WARM_UP_ROUNDS = 3


def _disabled():
    return activated(None)


@contextlib.contextmanager
def _observed(jsonl_path):
    session = TelemetrySession([JsonlSink(jsonl_path)])
    with activated(session):
        with ResourceSampler(session, interval=SAMPLE_INTERVAL):
            yield


def test_observe_overhead(benchmark, tmp_path):
    plan = build_vector_core_plan()
    jsonl = tmp_path / "bench-observe.jsonl"

    # Warm both paths so imports/allocator state don't bias either side.
    warm = build_warm_up_plan()
    for _ in range(WARM_UP_ROUNDS):
        time_vector_plan(warm, _disabled)
        time_vector_plan(warm, lambda: _observed(tmp_path / "warm.jsonl"))

    ratios = benchmark.pedantic(
        lambda: paired_overhead((plan, _disabled), (plan, lambda: _observed(jsonl))),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    assert_overhead("observe stack", ratios, OVERHEAD_TARGET, len(plan))
