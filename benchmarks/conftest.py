"""Shared infrastructure for the benchmark suite.

Each experiment benchmark regenerates one of the paper-claim experiments
(listed in README.md's "Experiments" table).  The experiment functions are
deterministic given their seed list, so every benchmark runs its experiment
exactly once (``benchmark.pedantic(rounds=1)``): the interesting output is
the table of measurements, not the wall-clock time, although
pytest-benchmark still records the latter.

Every experiment benchmark writes its rendered report to
``benchmarks/results/<id>.txt``, so the recorded tables always come from an
actual run.

The gate benchmarks (``bench_vector_backend.py``, ``bench_*_vector.py``,
``bench_*_overhead.py``, ``bench_campaign_store.py``) assert a speedup or
overhead bar and print the number they measured; run them with ``-s`` to
see it.  The repository's performance history is the results store's
host-keyed ``perf_samples`` (``python -m repro perf record|history|regress``)
and ``perfbench/``.  The vector-speedup and overhead gates share the E1
vector core plan and the one-run timer defined here; the overhead gates
also share its paired on/off ratio and the median's confidence interval.
"""

from __future__ import annotations

import contextlib
import gc
import math
import pathlib
import statistics
import time
from typing import Callable

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.exec import VectorBackend
from repro.experiments.plan import SweepPlan, factory
from repro.experiments.reporting import render_report
from repro.experiments.spec import ExperimentReport
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.polynomial_backoff import PolynomialBackoff

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Scale used by the benchmark suite.  "default" reproduces the shapes the
#: paper claims at laptop scale; switch to "full" for a slower, larger sweep.
BENCH_SCALE = "default"

#: Replications per configuration of the E1 vector core; the vector speedup
#: bar is defined at this count (vector cost is nearly flat in it, serial is
#: linear).
VECTOR_CORE_REPLICATIONS = 24

VECTOR_CORE_BATCH_SIZES = (100, 200)

#: Alternating on/off pairs an overhead gate times.
OVERHEAD_PAIRS = 32

#: One side of an overhead comparison: a plan and the context it runs in.
Side = tuple[SweepPlan, Callable[[], contextlib.AbstractContextManager]]


def save_report(report: ExperimentReport) -> str:
    """Render ``report``, persist it under ``benchmarks/results/``, return it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rendered = render_report(report)
    path = RESULTS_DIR / f"{report.spec.exp_id.lower()}.txt"
    path.write_text(rendered + "\n", encoding="utf-8")
    return rendered


def run_experiment_benchmark(benchmark, experiment, scale: str = BENCH_SCALE):
    """Run ``experiment`` once under pytest-benchmark and persist its report."""
    report = benchmark.pedantic(
        lambda: experiment(scale=scale), rounds=1, iterations=1, warmup_rounds=0
    )
    rendered = save_report(report)
    print()
    print(rendered)
    return report


def build_vector_core_plan(dynamics_window: int = 0) -> SweepPlan:
    """The vectorizable core of E1's batch-arrival grid.

    The oblivious baselines (binary exponential, polynomial, genie-tuned
    fixed probability) on batches of each :data:`VECTOR_CORE_BATCH_SIZES`,
    replicated over :data:`VECTOR_CORE_REPLICATIONS` seeds.
    """
    seeds = list(range(1, VECTOR_CORE_REPLICATIONS + 1))
    plan = SweepPlan()
    for n in VECTOR_CORE_BATCH_SIZES:
        for protocol in (
            BinaryExponentialBackoff(),
            PolynomialBackoff(),
            FixedProbabilityProtocol.tuned_for(n),
        ):
            plan.add_group(
                protocol,
                factory(CompositeAdversary, factory(BatchArrivals, n)),
                seeds,
                columns={"n": n},
                dynamics_window=dynamics_window,
            )
    return plan


def build_warm_up_plan(dynamics_window: int = 0) -> SweepPlan:
    """A two-seed plan run once per code path before it is timed.

    Warming each side first keeps imports and allocator state from biasing
    either side of an overhead ratio.
    """
    plan = SweepPlan()
    plan.add_group(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, 50)),
        [1, 2],
        dynamics_window=dynamics_window,
    )
    return plan


def time_vector_plan(
    plan: SweepPlan,
    context: Callable[[], contextlib.AbstractContextManager] = contextlib.nullcontext,
) -> float:
    """Wall clock of one run of ``plan`` on a fresh VectorBackend.

    The run happens inside a fresh ``context()``, entered after the clock
    starts, so switching instrumentation on is part of what is timed.  Each
    run starts from a collected heap: otherwise the cyclic collector's full
    passes fall on every few runs in a fixed pattern that lines up with the
    alternating order of :func:`paired_overhead`, and one side of a pair
    pays for them more often than the other.
    """
    gc.collect()
    started = time.perf_counter()
    with context():
        plan.run(VectorBackend())
    return time.perf_counter() - started


def paired_overhead(off: Side, on: Side) -> list[float]:
    """The on/off wall-clock ratios of :data:`OVERHEAD_PAIRS` alternating pairs.

    Each pair times one run of each side and the order flips every pair,
    so host drift and warm caches hit both sides alike.  Their median is
    what a gate asserts.  A best-of-N block per side is as noisy as the
    gates' bars on a shared host; the paired median is not.
    """
    ratios = []
    for index in range(OVERHEAD_PAIRS):
        if index % 2:
            on_seconds = time_vector_plan(*on)
            off_seconds = time_vector_plan(*off)
        else:
            off_seconds = time_vector_plan(*off)
            on_seconds = time_vector_plan(*on)
        ratios.append(on_seconds / off_seconds)
    return ratios


def median_interval(values: list[float]) -> tuple[float, float]:
    """A distribution-free 95% confidence interval for the median of ``values``.

    The interval between the ``k``-th smallest and the ``k``-th largest
    value misses the median only when fewer than ``k`` values fall on one
    side of it, which has probability ``2 P(Binomial(n, 1/2) < k)``; ``k``
    is the largest for which that stays within 5%.
    """
    ordered = sorted(values)
    n = len(ordered)
    k, below = 0, 0.0
    while True:
        below += math.comb(n, k) / 2**n
        if 2 * below > 0.05:
            break
        k += 1
    k = max(k, 1)
    return ordered[k - 1], ordered[n - k]


def assert_overhead(name: str, ratios: list[float], target: float, runs: int) -> None:
    """Print an overhead gate's paired ratios and assert their median bar."""
    low, median, high = statistics.quantiles(ratios, n=4)
    lower, upper = median_interval(ratios)
    print(
        f"\n{name} on/off median {median:.3f}x (quartiles {low:.3f}-{high:.3f}, "
        f"95% CI of the median {lower:.3f}-{upper:.3f}) over {len(ratios)} pairs "
        f"(target <= {target}x) [{runs} runs]"
    )
    assert median <= target, (
        f"{name} overhead ratio {median:.3f}x exceeded the {target}x acceptance bar"
    )


@pytest.fixture
def bench_scale() -> str:
    return BENCH_SCALE
