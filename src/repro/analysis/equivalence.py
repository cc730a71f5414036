"""Statistical-equivalence checking between execution backends.

The vector engine is *not* bit-identical to the scalar engine: both simulate
the same Markov chain, but the scalar engine hands every packet its own
``random.Random`` stream while the vector engine draws per-replication
Philox coin matrices.  Asserting equality therefore has to be statistical:
two sets of replicated runs of the same configuration should look like two
samples from one distribution.

Two complementary checks are applied per metric:

* **replicate-level agreement** — the replicate means of a headline metric
  (throughput, mean channel accesses, mean latency) are compared with a
  Welch two-sample t-test (Welch–Satterthwaite df) at a deliberately
  small ``mean_alpha``; a
  relative tolerance covers the degenerate cases (zero variance, fewer
  than two replicates) where the test is undefined.  The small alpha
  matters because drain-time-driven metrics are heavy-tailed, so at
  10–20 replicates even the t-approximation under-covers and a loose
  threshold would reject genuinely equivalent engine pairs;
* **distribution-level agreement** — per-packet distributions (latency,
  channel accesses) pooled across replicates are compared with a two-sample
  Kolmogorov–Smirnov test; the sides agree when the asymptotic p-value
  clears ``alpha``.  Packets within one replicate are *not* independent —
  a burst of jamming early in a run shifts every packet of that run
  together — so the p-value is computed at a Kish-deflated effective
  sample size ``n / (1 + (m̄ - 1)·ICC)``, where the intraclass
  correlation is estimated per side with the one-way ANOVA estimator.
  For weakly-coupled configurations the ICC is ≈0 and the correction is a
  no-op; for feedback-coupled adversaries (reactive/adaptive jamming)
  the clustering is strong and the naive pooled test would reject
  genuinely equivalent engine pairs.

Repeated *vector* runs of the same batch must be bit-identical — that
stronger property is checked directly by the test suite, not here.

This is the one comparison core: :func:`compare_means` is the two-sample
rule and :class:`EquivalenceReport` the report type of ``equivalence``,
``campaign diff`` and its trajectory diff (:mod:`repro.dynamics.compare`);
``perf regress`` takes its Welch p-value from :func:`compare_means` too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.analysis.statistics import welch_t_test
from repro.sim.results import SimulationResult


# ---------------------------------------------------------------------------
# Two-sample Kolmogorov–Smirnov test (no scipy dependency)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KsResult:
    """Two-sample KS statistic with its asymptotic p-value."""

    statistic: float
    p_value: float
    n1: int
    n2: int


def ks_2sample(
    sample1: Sequence[float],
    sample2: Sequence[float],
    *,
    n_eff1: float | None = None,
    n_eff2: float | None = None,
) -> KsResult:
    """Two-sample KS test with the classical asymptotic p-value.

    The p-value uses the Kolmogorov distribution with the standard
    small-sample correction (Numerical Recipes); it is accurate enough for
    the pooled per-packet samples (hundreds to thousands of points) this
    harness compares.

    ``n_eff1``/``n_eff2`` override the sample sizes used for the p-value
    (the D statistic always uses the full samples).  Callers with
    clustered samples pass Kish-deflated effective sizes here — see
    :func:`design_effect` — because the asymptotic p-value assumes
    independent draws and is anti-conservative under within-cluster
    correlation.
    """
    if not sample1 or not sample2:
        raise ValueError("both samples must be non-empty")
    xs = sorted(sample1)
    ys = sorted(sample2)
    n1, n2 = len(xs), len(ys)
    i = j = 0
    statistic = 0.0
    while i < n1 and j < n2:
        x, y = xs[i], ys[j]
        smallest = min(x, y)
        while i < n1 and xs[i] <= smallest:
            i += 1
        while j < n2 and ys[j] <= smallest:
            j += 1
        statistic = max(statistic, abs(i / n1 - j / n2))
    m1 = float(n1) if n_eff1 is None else min(float(n1), max(1.0, n_eff1))
    m2 = float(n2) if n_eff2 is None else min(float(n2), max(1.0, n_eff2))
    effective = math.sqrt(m1 * m2 / (m1 + m2))
    lam = (effective + 0.12 + 0.11 / effective) * statistic
    p_value = _kolmogorov_sf(lam)
    return KsResult(statistic=statistic, p_value=p_value, n1=n1, n2=n2)


def design_effect(groups: Sequence[Sequence[float]]) -> float:
    """Kish design effect ``1 + (m̄ - 1)·ICC`` of clustered samples.

    ``groups`` holds one inner sequence per cluster (here: the per-packet
    values of one replicate).  The intraclass correlation is the one-way
    ANOVA estimator ``(MSB - MSW) / (MSB + (n0 - 1)·MSW)`` clamped to
    ``[0, 1]``; degenerate inputs (fewer than two clusters, singleton
    clusters only, zero variance) fall back to a design effect of 1, which
    reduces the corrected KS test to the classical one.
    """
    sizes = [len(group) for group in groups if group]
    k = len(sizes)
    total = sum(sizes)
    if k < 2 or total <= k:
        return 1.0
    grand_mean = sum(value for group in groups for value in group) / total
    ss_between = 0.0
    ss_within = 0.0
    for group in groups:
        if not group:
            continue
        group_mean = sum(group) / len(group)
        ss_between += len(group) * (group_mean - grand_mean) ** 2
        ss_within += sum((value - group_mean) ** 2 for value in group)
    ms_between = ss_between / (k - 1)
    ms_within = ss_within / (total - k)
    if ms_between <= 0.0 and ms_within <= 0.0:
        return 1.0
    n0 = (total - sum(size * size for size in sizes) / total) / (k - 1)
    denominator = ms_between + (n0 - 1.0) * ms_within
    if denominator <= 0.0:
        return 1.0
    icc = (ms_between - ms_within) / denominator
    icc = min(1.0, max(0.0, icc))
    mean_size = total / k
    return 1.0 + (mean_size - 1.0) * icc


def _kolmogorov_sf(lam: float) -> float:
    """Survival function of the Kolmogorov distribution, ``Q_KS(λ)``."""
    if lam <= 0.0:
        return 1.0
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


# ---------------------------------------------------------------------------
# Metric extraction
# ---------------------------------------------------------------------------


def _replicate_throughput(result: SimulationResult) -> float:
    return result.throughput


def _replicate_mean_accesses(result: SimulationResult) -> float:
    return result.energy_statistics().mean_accesses


def _replicate_mean_latency(result: SimulationResult) -> float:
    return result.latency_statistics().mean_latency


#: Per-replication headline metrics compared by :func:`compare_means`.
REPLICATE_METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "throughput": _replicate_throughput,
    "mean_accesses": _replicate_mean_accesses,
    "mean_latency": _replicate_mean_latency,
}


def _pooled_latencies(results: Sequence[SimulationResult]) -> list[list[float]]:
    return [
        [float(p.latency) for p in result.packets if p.latency is not None]
        for result in results
    ]


def _pooled_accesses(results: Sequence[SimulationResult]) -> list[list[float]]:
    return [[float(p.channel_accesses) for p in result.packets] for result in results]


#: Per-packet distributions grouped by replicate, compared via the KS test
#: at a design-effect-corrected effective sample size.
POOLED_METRICS: dict[str, Callable[[Sequence[SimulationResult]], list[list[float]]]] = {
    "latency_distribution": _pooled_latencies,
    "accesses_distribution": _pooled_accesses,
}


# ---------------------------------------------------------------------------
# The report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricComparison:
    """Outcome of comparing one metric between the two sides."""

    metric: str
    method: str  # "welch-t", "ks" or "bit-identical-repeat"
    passed: bool
    detail: str
    #: The test's p-value; ``None`` when the verdict came from the
    #: relative-tolerance fallback or from an exact check.
    p_value: float | None = None


@dataclass
class EquivalenceReport:
    """All metric comparisons between two result sets."""

    comparisons: list[MetricComparison] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(comparison.passed for comparison in self.comparisons)

    def failures(self) -> list[MetricComparison]:
        return [c for c in self.comparisons if not c.passed]

    def render(self) -> str:
        lines = ["equivalence: " + ("PASS" if self.passed else "FAIL")]
        for c in self.comparisons:
            status = "ok " if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.metric} ({c.method}): {c.detail}")
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


class OptionError(ValueError):
    """A comparison option out of range, named as on the command line with
    underscores for dashes (``trajectory_alpha``)."""

    def __init__(self, option: str, requirement: str, value: float) -> None:
        super().__init__(f"{option} must be {requirement}, got {value!r}")
        self.option = option


def check_level(option: str, value: float) -> None:
    """Reject a significance level outside (0, 1)."""
    if not 0.0 < value < 1.0:
        raise OptionError(option, "in (0, 1)", value)


def check_minimum(option: str, value: float, minimum: float) -> None:
    """Reject a value below ``minimum`` (or NaN)."""
    if not value >= minimum:
        raise OptionError(option, f">= {minimum:g}", value)


def compare_result_sets(
    scalar_results: Sequence[SimulationResult],
    vector_results: Sequence[SimulationResult],
    *,
    alpha: float = 0.001,
    mean_alpha: float = 0.002,
    relative_tolerance: float = 0.15,
    labels: tuple[str, str] = ("scalar", "vector"),
) -> EquivalenceReport:
    """Check that two replicated result sets agree statistically.

    ``scalar_results`` and ``vector_results`` should be replicated runs of
    the *same* configuration (any seeds).  ``alpha`` is the KS rejection
    level and ``mean_alpha`` the Welch-test rejection level — both
    deliberately small, because at these sample sizes loose thresholds
    reject genuinely equivalent engine pairs far more often than they
    catch real defects (a systematic kernel bug produces p-values orders
    of magnitude below any sane threshold).  ``relative_tolerance`` is the
    fallback agreement criterion for replicate means when the Welch test
    is undefined (zero variance, fewer than two replicates).

    ``labels`` names the two sides in rendered details; ``campaign diff``
    reuses this machinery to compare two stored campaigns, where
    "scalar"/"vector" would be misleading.
    """
    check_level("alpha", alpha)
    if not scalar_results or not vector_results:
        raise ValueError("both result sets must be non-empty")
    report = EquivalenceReport()

    for metric, extract in REPLICATE_METRICS.items():
        try:
            left = [extract(result) for result in scalar_results]
            right = [extract(result) for result in vector_results]
        except ValueError as exc:
            report.notes.append(f"{metric}: skipped ({exc})")
            continue
        report.comparisons.append(
            compare_means(metric, left, right, mean_alpha, relative_tolerance, labels)
        )

    for metric, pool in POOLED_METRICS.items():
        left_groups = pool(scalar_results)
        right_groups = pool(vector_results)
        left = [value for group in left_groups for value in group]
        right = [value for group in right_groups for value in group]
        if not left or not right:
            report.notes.append(f"{metric}: skipped (no samples)")
            continue
        deff_left = design_effect(left_groups)
        deff_right = design_effect(right_groups)
        ks = ks_2sample(
            left,
            right,
            n_eff1=len(left) / deff_left,
            n_eff2=len(right) / deff_right,
        )
        report.comparisons.append(
            MetricComparison(
                metric=metric,
                method="ks",
                passed=ks.p_value > alpha,
                detail=(
                    f"D={ks.statistic:.4f}, p={ks.p_value:.4f} "
                    f"(n={ks.n1}/{ks.n2}, "
                    f"deff={deff_left:.1f}/{deff_right:.1f}, alpha={alpha})"
                ),
                p_value=ks.p_value,
            )
        )
    return report


def compare_means(
    metric: str,
    left: Sequence[float],
    right: Sequence[float],
    mean_alpha: float,
    relative_tolerance: float,
    labels: tuple[str, str] = ("scalar", "vector"),
) -> MetricComparison:
    """The one two-sample rule: Welch's t where defined, else a tolerance.

    The sides agree when Welch's two-sided p-value clears ``mean_alpha``,
    or — where the test is undefined (fewer than two values on a side, or
    zero variance) — when their means differ by at most
    ``relative_tolerance`` of the larger one.  The comparison carries the
    Welch p-value (``None`` for the fallback) for callers with their own
    multiple-testing or one-sided rule.
    """
    check_level("mean_alpha", mean_alpha)
    check_minimum("relative_tolerance", relative_tolerance, 0.0)
    left_label, right_label = labels
    n1, n2 = len(left), len(right)
    left_mean = sum(left) / n1
    right_mean = sum(right) / n2
    means = f"{left_label} {left_mean:.4f} vs {right_label} {right_mean:.4f}"
    try:
        # Welch's t with Welch–Satterthwaite df, not a normal z: at the
        # replicate counts campaigns and the harness actually run (2–24 per
        # side), the normal approximation overstates significance by orders
        # of magnitude and flags genuinely equivalent result sets.
        t, df, p_value = welch_t_test(left, right)
    except ValueError:
        # Too few values or zero variance: the statistic is undefined, and
        # exact equality would be too strict across random-stream layouts.
        scale = max(abs(left_mean), abs(right_mean), 1e-12)
        relative_difference = abs(left_mean - right_mean) / scale
        degenerate = "zero variance; " if n1 >= 2 and n2 >= 2 else ""
        return MetricComparison(
            metric=metric,
            method="welch-t",
            passed=relative_difference <= relative_tolerance,
            detail=(
                f"{means} ({degenerate}relative diff {relative_difference:.3f}, "
                f"tolerance {relative_tolerance})"
            ),
        )
    return MetricComparison(
        metric=metric,
        method="welch-t",
        passed=p_value > mean_alpha,
        detail=(
            f"{means} (t={t:.2f}, df={df:.1f}, p={p_value:.4f}, "
            f"alpha={mean_alpha}, n={n1}/{n2})"
        ),
        p_value=p_value,
    )


# ---------------------------------------------------------------------------
# Convenience: run both backends on the same specs and compare
# ---------------------------------------------------------------------------


def verify_vector_equivalence(specs: Sequence) -> EquivalenceReport:
    """Run ``specs`` through both engines and compare the results.

    ``specs`` must all be replications of one vectorizable configuration
    (same protocol/adversary/options, varying seed) — the shape produced by
    one :class:`~repro.experiments.plan.SweepPlan` group.  The serial side
    is the reference scalar engine; the vector side runs the same seeds
    on the :class:`~repro.exec.VectorBackend`, as one lockstep batch.
    Also asserts the vector side's stronger determinism contract: a second
    vector run must be bit-identical.
    """
    from repro.exec import SerialBackend, VectorBackend

    specs = list(specs)
    for spec in specs:
        reason = spec.vector_support()
        if reason is not None:
            raise ValueError(f"spec cannot vectorize: {reason}")
    scalar_results = SerialBackend().run(specs)
    vector_results = VectorBackend().run(specs)
    report = compare_result_sets(scalar_results, vector_results)
    repeat = VectorBackend().run(specs)
    deterministic = all(
        first.packets == second.packets
        and first.collector.jammed_active_slots
        == second.collector.jammed_active_slots
        for first, second in zip(vector_results, repeat)
    )
    report.comparisons.append(
        MetricComparison(
            metric="vector_determinism",
            method="bit-identical-repeat",
            passed=deterministic,
            detail=f"{len(specs)} replications re-run and compared exactly",
        )
    )
    return report


def verify_plan_equivalence(plan) -> dict[int, "EquivalenceReport"]:
    """Check every vectorizable group of a sweep plan through both engines.

    ``plan`` is a :class:`~repro.experiments.plan.SweepPlan` (for example
    one compiled from a scenario by :func:`repro.scenarios.runner.build_plan`).
    Each group is one configuration replicated over seeds — exactly the
    shape :func:`verify_vector_equivalence` wants — so the plan's
    vectorizable groups map to one report each, keyed by group id.
    Non-vectorizable groups are skipped (they have no vector side to
    compare).
    """
    specs = plan.specs
    fallback_groups = plan.vector_summary()["fallback_groups"]
    reports: dict[int, EquivalenceReport] = {}
    for group in plan.groups:
        if group.group_id in fallback_groups:
            continue
        reports[group.group_id] = verify_vector_equivalence(
            [specs[index] for index in group.spec_indices]
        )
    return reports
