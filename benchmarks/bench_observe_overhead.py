"""Benchmark: the full observe stack must cost <= 1.05x on the E1 core.

Runs the same vectorizable E1 batch-arrival workload as
``bench_telemetry_overhead.py`` twice — once bare (NULL session) and once
with everything ``repro.observe`` adds on top of telemetry active at the
same time: a :class:`RegistrySink` folding every event into live metrics,
a JSONL sink, and a :class:`ResourceSampler` polling ``/proc`` on a tight
interval.  The enabled/disabled wall-clock ratio is printed.

The aggregation layer inherits telemetry's contract: it only ever *reads*
monotonic clocks, ``/proc``, and already-emitted events, so stacking it on
must stay inside the same <= 1.05x bar the base instrumentation meets.
On contended CI hardware the bar can be relaxed via
``BENCH_OBSERVE_OVERHEAD_TARGET``; the measured ratio is always printed
(run with ``-s``) so the acceptance number stays auditable.
"""

from __future__ import annotations

import contextlib
import os

from conftest import build_vector_core_plan, build_warm_up_plan, time_vector_plan

from repro.observe import RegistrySink, ResourceSampler
from repro.telemetry import JsonlSink, TelemetrySession, activated

#: Enabled/disabled wall-clock ratio the aggregation layer may cost.
OVERHEAD_TARGET = float(os.environ.get("BENCH_OBSERVE_OVERHEAD_TARGET", "1.05"))

#: Resource-sampler poll interval; deliberately much tighter than the
#: 0.25s default so the bar covers a worst-case sampling cadence.
SAMPLE_INTERVAL = 0.05

#: Timed rounds per mode; the minimum is reported to shed scheduler noise.
ROUNDS = 3


def _disabled():
    return activated(None)


@contextlib.contextmanager
def _observed(jsonl_path):
    session = TelemetrySession([RegistrySink(), JsonlSink(jsonl_path)])
    with activated(session):
        with ResourceSampler(session, interval=SAMPLE_INTERVAL):
            yield


def test_observe_overhead(benchmark, tmp_path):
    plan = build_vector_core_plan()
    jsonl = tmp_path / "bench-observe.jsonl"

    # Warm both paths once so imports/allocator state don't bias either side.
    warm = build_warm_up_plan()
    time_vector_plan(warm, ROUNDS, _disabled)
    time_vector_plan(warm, ROUNDS, lambda: _observed(tmp_path / "warm.jsonl"))

    disabled_seconds = benchmark.pedantic(
        lambda: time_vector_plan(plan, ROUNDS, _disabled),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    enabled_seconds = time_vector_plan(plan, ROUNDS, lambda: _observed(jsonl))

    ratio = enabled_seconds / disabled_seconds
    print(
        f"\nobserve stack enabled {enabled_seconds:.3f}s vs disabled "
        f"{disabled_seconds:.3f}s -> {ratio:.3f}x "
        f"(target <= {OVERHEAD_TARGET}x) [{len(plan)} runs]"
    )
    assert ratio <= OVERHEAD_TARGET, (
        f"observe overhead ratio {ratio:.3f}x exceeded the "
        f"{OVERHEAD_TARGET}x acceptance bar"
    )
