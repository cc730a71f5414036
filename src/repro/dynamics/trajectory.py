"""Windowed simulation-dynamics trajectories.

A :class:`DynamicsTrajectory` is a compact per-window time series of one
execution: every ``window`` slots the engines snapshot the cumulative
counters and a few live gauges (backlog, contention, mean backoff window,
jammer budget), and the trajectory stores the per-window differences plus
the end-of-window gauge values as numpy arrays.  The final window may be
partial (the execution drained or hit ``max_slots`` mid-window); its width
is recorded in :attr:`DynamicsTrajectory.slots`.

Both engines produce trajectories through the same machinery:

* the scalar engine feeds a :class:`DynamicsAccumulator` at each window
  boundary (one pass over the active packets, no per-slot work);
* the vector engine samples each row's gauges as the row crosses a
  boundary and turns every row's snapshots into series at once after its
  loop.

Both paths end in :func:`trajectory_series` (the scalar one through
:func:`build_trajectory`), so the arithmetic that turns cumulative
snapshots into per-window series is literally shared — when the two
engines agree on the snapshot integers and gauge floats (which they do on
shared coins), the trajectories are bit-identical.

Trajectories are **result-inert**: they never consume randomness, never
change any counter, and are excluded from run artifacts and store
fingerprints (see ``repro.store``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

#: Default sampling window (slots per sample) for ``--dynamics``.
DEFAULT_WINDOW = 1000

#: Integer per-window series (counts and cumulative counters).
COUNT_FIELDS = (
    "slots",
    "arrivals",
    "successes",
    "collisions",
    "jammed",
    "idle",
    "backlog",
    "cumulative_sends",
    "cumulative_listens",
)

#: Float per-window series (rates and end-of-window gauges; NaN = not
#: applicable for this protocol/adversary).
GAUGE_FIELDS = (
    "throughput",
    "contention",
    "mean_window",
    "mean_send_probability",
    "jammer_budget_remaining",
)

ARRAY_FIELDS = COUNT_FIELDS + GAUGE_FIELDS


@dataclass(frozen=True, slots=True)
class WindowSnapshot:
    """Cumulative state sampled at one window boundary (end of a slot).

    Counters are cumulative since slot 0; the gauges (``backlog``,
    ``window_sum``/``window_count``, ``probability_sum``) describe the live
    post-slot system state at the boundary.
    """

    num_slots: int
    arrivals: int
    successes: int
    collisions: int
    jammed: int
    sends: int
    listens: int
    backlog: int
    window_sum: float
    window_count: int
    probability_sum: float


@dataclass(eq=False)
class DynamicsTrajectory:
    """Per-window dynamics of one execution (arrays of equal length K)."""

    window: int
    num_slots: int
    slots: np.ndarray
    arrivals: np.ndarray
    successes: np.ndarray
    collisions: np.ndarray
    jammed: np.ndarray
    idle: np.ndarray
    backlog: np.ndarray
    throughput: np.ndarray
    cumulative_sends: np.ndarray
    cumulative_listens: np.ndarray
    contention: np.ndarray
    mean_window: np.ndarray
    mean_send_probability: np.ndarray
    jammer_budget_remaining: np.ndarray

    @property
    def num_windows(self) -> int:
        return int(self.slots.shape[0])

    def window_bounds(self) -> list[tuple[int, int]]:
        """Inclusive ``(first_slot, last_slot)`` of each window."""
        bounds = []
        start = 0
        for width in self.slots.tolist():
            bounds.append((start, start + width - 1))
            start += width
        return bounds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DynamicsTrajectory):
            return NotImplemented
        if self.window != other.window or self.num_slots != other.num_slots:
            return False
        return all(
            np.array_equal(
                getattr(self, name), getattr(other, name), equal_nan=True
            )
            for name in ARRAY_FIELDS
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (NaN encoded as ``None``)."""
        payload: dict[str, Any] = {
            "window": self.window,
            "num_slots": self.num_slots,
        }
        for name in COUNT_FIELDS:
            payload[name] = getattr(self, name).tolist()
        for name in GAUGE_FIELDS:
            payload[name] = [
                None if math.isnan(value) else value
                for value in getattr(self, name).tolist()
            ]
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DynamicsTrajectory":
        kwargs: dict[str, Any] = {
            "window": int(payload["window"]),
            "num_slots": int(payload["num_slots"]),
        }
        for name in COUNT_FIELDS:
            kwargs[name] = np.asarray(payload[name], dtype=np.int64)
        for name in GAUGE_FIELDS:
            kwargs[name] = np.asarray(
                [math.nan if value is None else value for value in payload[name]],
                dtype=np.float64,
            )
        return cls(**kwargs)


def trajectory_series(
    *, budget: float | np.ndarray, **snapshots: np.ndarray
) -> dict[str, np.ndarray]:
    """Every :data:`ARRAY_FIELDS` series from cumulative boundary snapshots.

    ``snapshots`` holds each :class:`WindowSnapshot` field as an array with
    one entry per window along axis 0: one execution's, or one column per
    execution of a batch.  The per-window counts are consecutive
    differences, the gauges the end-of-window values; a window of zero
    slots (a batch's windows past an execution's end) gets NaN rates.
    ``budget`` is the jammer's static budget (per column of a batch), NaN
    for none.
    """
    def per_window(cumulative: np.ndarray) -> np.ndarray:
        return np.diff(cumulative, axis=0, prepend=0)

    def ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
        out = np.full(denominator.shape, math.nan)
        return np.divide(numerator, denominator, out=out, where=denominator > 0)

    slots = per_window(snapshots["num_slots"])
    successes = per_window(snapshots["successes"])
    collisions = per_window(snapshots["collisions"])
    jammed = per_window(snapshots["jammed"])
    backlog = snapshots["backlog"]
    probability_sum = snapshots["probability_sum"]
    return {
        "slots": slots,
        "arrivals": per_window(snapshots["arrivals"]),
        "successes": successes,
        "collisions": collisions,
        "jammed": jammed,
        "idle": slots - successes - collisions - jammed,
        "backlog": backlog,
        "cumulative_sends": snapshots["sends"],
        "cumulative_listens": snapshots["listens"],
        "throughput": ratio(successes, slots),
        "contention": probability_sum,
        "mean_window": ratio(snapshots["window_sum"], snapshots["window_count"]),
        "mean_send_probability": ratio(probability_sum, backlog),
        "jammer_budget_remaining": np.subtract(
            budget, snapshots["jammed"], dtype=np.float64
        ),
    }


#: The :class:`WindowSnapshot` fields and the dtype each series of them takes.
_SNAPSHOT_DTYPES = {
    field.name: np.float64 if field.name in ("window_sum", "probability_sum") else np.int64
    for field in dataclasses.fields(WindowSnapshot)
}


def build_trajectory(
    window: int,
    num_slots: int,
    snapshots: Sequence[WindowSnapshot],
    *,
    budget: float | None = None,
) -> DynamicsTrajectory:
    """Turn boundary snapshots into per-window series.

    Both engines share the arithmetic of :func:`trajectory_series`: the
    scalar engine through here, the vector engine once per batch — so
    equal snapshots imply bit-identical trajectories.
    """
    series = trajectory_series(
        budget=math.nan if budget is None else budget,
        **{
            name: np.array([getattr(snap, name) for snap in snapshots], dtype=dtype)
            for name, dtype in _SNAPSHOT_DTYPES.items()
        },
    )
    if (series["slots"] <= 0).any():
        raise ValueError("window snapshots must advance num_slots")
    if snapshots and snapshots[-1].num_slots != num_slots:
        raise ValueError(
            f"final snapshot covers {snapshots[-1].num_slots} slots, execution ran "
            f"{num_slots}"
        )
    return DynamicsTrajectory(window=int(window), num_slots=int(num_slots), **series)


class DynamicsAccumulator:
    """The scalar engine's windowed sampler: snapshots, no per-slot work.

    The engine calls :meth:`sample` at each window boundary (and once more
    from ``result()`` when the run stops mid-window); each call records the
    collector's cumulative counters plus the live gauges in O(backlog).
    """

    __slots__ = ("window", "budget", "_snapshots")

    def __init__(self, window: int, *, budget: float | None = None) -> None:
        if window <= 0:
            raise ValueError("dynamics window must be positive")
        self.window = int(window)
        self.budget = budget
        self._snapshots: list[WindowSnapshot] = []

    def sample(
        self,
        *,
        num_slots: int,
        arrivals: int,
        successes: int,
        collisions: int,
        jammed: int,
        sends: int,
        listens: int,
        backlog: int,
        window_sum: float,
        window_count: int,
        probability_sum: float,
    ) -> None:
        self._snapshots.append(
            WindowSnapshot(
                num_slots=num_slots,
                arrivals=arrivals,
                successes=successes,
                collisions=collisions,
                jammed=jammed,
                sends=sends,
                listens=listens,
                backlog=backlog,
                window_sum=window_sum,
                window_count=window_count,
                probability_sum=probability_sum,
            )
        )

    def pending(self, num_slots: int) -> bool:
        """True when slots beyond the last snapshot still need a sample."""
        last = self._snapshots[-1].num_slots if self._snapshots else 0
        return num_slots > last

    def build(self, num_slots: int) -> DynamicsTrajectory:
        return build_trajectory(
            self.window, num_slots, self._snapshots, budget=self.budget
        )


def jammer_budget(obj: Any) -> float | None:
    """The adversary's (or jammer's) static jamming budget, if it has one.

    Accepts a composite adversary (``.jammer.budget``) or a bare jammer
    (``.budget``); anything without a numeric budget — unlimited jammers,
    scheduled per-phase budgets, backlog-coupled adversaries — yields
    ``None`` and the budget gauge stays NaN.
    """
    jammer = getattr(obj, "jammer", obj)
    budget = getattr(jammer, "budget", None)
    if isinstance(budget, bool) or not isinstance(budget, (int, float)):
        return None
    return float(budget)


def windowed_series(result: Any, window: int) -> dict[str, np.ndarray] | None:
    """Per-window series derived from a stored result, for trajectory diffs.

    Derives throughput, backlog, arrivals and successes from the result's
    cumulative per-slot counts
    (:meth:`~repro.sim.results.SimulationResult.slot_counts`), so stored
    results compare too; a :class:`DynamicsTrajectory` sampled at the same
    window holds the same series.  Returns ``None`` for a run of zero slots.
    """
    counts = result.slot_counts()
    n = counts.backlog.shape[0]
    if n == 0:
        return None
    ends = np.arange(window - 1, n, window)
    if not ends.size or ends[-1] != n - 1:
        ends = np.append(ends, n - 1)
    widths = np.diff(ends, prepend=-1).astype(np.float64)
    successes = np.diff(counts.successes[ends], prepend=0).astype(np.float64)
    return {
        "throughput": successes / widths,
        "backlog": counts.backlog[ends].astype(np.float64),
        "arrivals": np.diff(counts.arrivals[ends], prepend=0).astype(np.float64),
        "successes": successes,
    }
