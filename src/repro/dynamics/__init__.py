"""Windowed simulation-dynamics streams (`python -m repro dynamics ...`).

The paper's claims are about *trajectories* — window growth under jamming,
backlog draining after a budget runs out — not just end-of-run aggregates.
This package samples simulation state every W slots into compact numpy
series on both engines, attaches them to results, and persists them as
fingerprint-inert artifacts in the results store.  ``campaign diff
--trajectories`` compares two campaigns' paths window by window
(:func:`compare_trajectory_sets`: the comparison core's two-sample rule per
window, Benjamini–Hochberg control over the Welch-tested windows).
"""

from repro.dynamics.compare import (
    DEFAULT_DIFF_METRICS,
    compare_trajectory_sets,
    derive_window,
)
from repro.dynamics.render import (
    render_trajectory,
    sparkline,
    trajectory_to_csv,
    trajectory_to_json,
)
from repro.dynamics.trajectory import (
    ARRAY_FIELDS,
    COUNT_FIELDS,
    DEFAULT_WINDOW,
    GAUGE_FIELDS,
    DynamicsAccumulator,
    DynamicsTrajectory,
    WindowSnapshot,
    build_trajectory,
    jammer_budget,
    windowed_series,
)

__all__ = [
    "ARRAY_FIELDS",
    "COUNT_FIELDS",
    "DEFAULT_DIFF_METRICS",
    "DEFAULT_WINDOW",
    "GAUGE_FIELDS",
    "DynamicsAccumulator",
    "DynamicsTrajectory",
    "WindowSnapshot",
    "build_trajectory",
    "compare_trajectory_sets",
    "derive_window",
    "jammer_budget",
    "render_trajectory",
    "sparkline",
    "trajectory_to_csv",
    "trajectory_to_json",
    "windowed_series",
]
