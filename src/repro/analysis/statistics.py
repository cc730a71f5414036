"""Statistics over replicated runs: Welch's t, FDR control, quantiles.

Welch's t-test (with a scipy-free Student's t tail) backs the comparison
core (:mod:`repro.analysis.equivalence`), Benjamini–Hochberg the trajectory
diff (:mod:`repro.dynamics.compare`), and the linear quantile the timing
numbers.  Report rows take the replicate means of result metrics
themselves (:data:`repro.metrics.summary.MEAN_COLUMNS`).
"""

from __future__ import annotations

import math
from typing import Sequence


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Numerical Recipes)."""
    max_iterations = 300
    epsilon = 3e-12
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, max_iterations + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < epsilon:
            break
    return h


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """``I_x(a, b)``, the regularized incomplete beta function.

    Scipy-free (continued-fraction) implementation, accurate to ~1e-10
    over the parameter ranges the t-distribution needs.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """One-sided survival function ``P(T > t)`` of Student's t.

    Exists so Welch comparisons at small replicate counts (df of 1–10,
    where the normal approximation overstates significance by orders of
    magnitude) get honest p-values without a scipy dependency.
    """
    if df <= 0.0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(df / 2.0, 0.5, x)
    return tail if t > 0.0 else 1.0 - tail


def welch_t_test(
    left: Sequence[float], right: Sequence[float]
) -> tuple[float, float, float]:
    """Welch's unequal-variance t-test on two samples.

    Returns ``(t, df, p)`` with the Welch–Satterthwaite degrees of
    freedom and the two-sided p-value.  Requires at least two values per
    side and non-degenerate variance; callers handle those cases with a
    tolerance fallback.
    """
    n1, n2 = len(left), len(right)
    if n1 < 2 or n2 < 2:
        raise ValueError("welch_t_test needs at least two values per side")
    mean1 = sum(left) / n1
    mean2 = sum(right) / n2
    var1 = sum((x - mean1) ** 2 for x in left) / (n1 - 1)
    var2 = sum((x - mean2) ** 2 for x in right) / (n2 - 1)
    se1, se2 = var1 / n1, var2 / n2
    standard_error = math.sqrt(se1 + se2)
    if standard_error == 0.0:
        raise ValueError("welch_t_test is undefined for zero variance")
    t = (mean1 - mean2) / standard_error
    df = (se1 + se2) ** 2 / (
        (se1**2 / (n1 - 1) if se1 else 0.0) + (se2**2 / (n2 - 1) if se2 else 0.0)
    )
    p_value = 2.0 * student_t_sf(abs(t), df)
    return t, df, min(1.0, p_value)


def benjamini_hochberg(
    p_values: Sequence[float], alpha: float = 0.05
) -> list[bool]:
    """Benjamini–Hochberg FDR control: which hypotheses are rejected.

    Returns one boolean per input p-value (in input order); a p-value of
    exactly 0.0, which :func:`welch_t_test` can return, is rejected too.
    Used by the trajectory diff, where one comparison per window per metric
    would make a plain per-test ``alpha`` either far too loose (many false
    flags over hundreds of windows) or, Bonferroni-corrected, far too
    strict to catch a regression confined to a few windows.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    m = len(p_values)
    if m == 0:
        return []
    for p in p_values:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p-values must lie in [0, 1], got {p!r}")
    order = sorted(range(m), key=lambda index: p_values[index])
    # Reject every p-value up to the largest one under its step-up bound.
    # Starting below 0.0 keeps a passing p-value of exactly 0.0 a rejection
    # and rejects nothing when no p-value passes.
    threshold = -1.0
    for rank, index in enumerate(order, start=1):
        if p_values[index] <= rank * alpha / m:
            threshold = p_values[index]
    return [p <= threshold for p in p_values]


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of a sample by linear interpolation.

    Matches numpy's default (``method="linear"``) so quantiles computed
    here and in vectorized code agree.  It serves the timing numbers: the
    telemetry summarizer's p50/p95 span columns and its worker table's
    queue-wait p50/p95.  Result metrics (energy and latency percentiles)
    use the nearest-rank rule,
    :func:`repro.metrics.summary.nearest_rank_quantile`, instead.
    """
    if not values:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return float(ordered[lower])
    weight = position - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)
