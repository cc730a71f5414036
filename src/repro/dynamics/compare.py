"""Trajectory-level regression comparison between replicate sets.

End-of-run aggregates can agree while the *path* regressed — e.g. a
protocol change that collapses throughput only after a jammer's budget
runs out, paid back by an unusually strong opening.  The trajectory diff
compares two replicate sets window by window through the comparison
core's two-sample rule (:func:`repro.analysis.equivalence.compare_means`):
a Welch test per window per metric, with Benjamini–Hochberg control across
all the Welch-tested windows so hundreds of tests do not drown the few
that matter.  Windows where the test is undefined (fewer than two
replicates, or zero variance) fall back to the rule's relative tolerance.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.equivalence import (
    EquivalenceReport,
    check_level,
    check_minimum,
    compare_means,
)
from repro.analysis.statistics import benjamini_hochberg
from repro.dynamics.trajectory import windowed_series

#: Metrics compared by default — both derivable from any stored result's
#: packet records, so the diff works on campaigns recorded without
#: ``--dynamics``.
DEFAULT_DIFF_METRICS = ("throughput", "backlog")

#: Target number of windows when deriving a comparison window from the
#: runs themselves (shortest run / 16, floored at 1).
TARGET_WINDOWS = 16


def derive_window(results: Sequence[Any]) -> int:
    """A comparison window sized so the shortest run spans ~16 windows."""
    slot_counts = [result.num_slots for result in results if result.num_slots]
    if not slot_counts:
        return 1
    return max(1, min(slot_counts) // TARGET_WINDOWS)


def compare_trajectory_sets(
    left: Sequence[Any],
    right: Sequence[Any],
    *,
    window: int | None = None,
    metrics: Sequence[str] = DEFAULT_DIFF_METRICS,
    alpha: float = 0.01,
    relative_tolerance: float = 0.15,
    labels: tuple[str, str] = ("left", "right"),
) -> EquivalenceReport:
    """Compare two sets of replicate results window by window.

    ``left``/``right`` are :class:`~repro.sim.results.SimulationResult`
    replicates of the same configuration (modulo the change under test).
    ``alpha`` is the Benjamini–Hochberg false-discovery rate over the
    Welch-tested windows.  The report holds one failing comparison per
    flagged window, so it passes when nothing is flagged; its notes say
    how many windows were compared and how many were Welch-tested.
    """
    if not left or not right:
        raise ValueError("both sides need at least one replicate result")
    if window is None:
        window = derive_window(list(left) + list(right))
    check_minimum("trajectory_window", window, 1)
    check_level("trajectory_alpha", alpha)
    left_series = [windowed_series(result, window) for result in left]
    right_series = [windowed_series(result, window) for result in right]
    left_series = [series for series in left_series if series is not None]
    right_series = [series for series in right_series if series is not None]
    report = EquivalenceReport()
    if not left_series or not right_series:
        report.notes.append(
            "no windowed series available (runs of zero slots); "
            "trajectory comparison skipped"
        )
        return report
    num_windows = min(
        series[metrics[0]].shape[0] for series in left_series + right_series
    )

    windows = [
        compare_means(
            f"{metric} window {j} [slots {j * window}-{(j + 1) * window - 1}]",
            [float(series[metric][j]) for series in left_series],
            [float(series[metric][j]) for series in right_series],
            alpha,
            relative_tolerance,
            labels,
        )
        for metric in metrics
        for j in range(num_windows)
    ]
    tested = [c.p_value for c in windows if c.p_value is not None]
    # A Welch-tested window is flagged when BH rejects it (BH only rejects
    # p <= alpha, which the per-window comparison already failed); a
    # fallback window is flagged when its means differ beyond tolerance.
    rejected = iter(benjamini_hochberg(tested, alpha))
    report.comparisons = [
        comparison
        for comparison in windows
        if (
            next(rejected)
            if comparison.p_value is not None
            else not comparison.passed
        )
    ]
    report.notes.append(
        f"trajectories: {len(left_series)} vs {len(right_series)} replicates, "
        f"window={window}, {num_windows} windows, {len(windows)} window "
        f"comparisons, {len(tested)} Welch-tested under Benjamini–Hochberg "
        f"FDR alpha={alpha}"
    )
    return report
