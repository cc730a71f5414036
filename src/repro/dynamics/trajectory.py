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
  boundary and materialises per-row snapshots after its loop.

Both paths end in :func:`build_trajectory`, so the arithmetic that turns
cumulative snapshots into per-window series is literally shared — when the
two engines agree on the snapshot integers and gauge floats (which they do
on shared coins), the trajectories are bit-identical.

Trajectories are **result-inert**: they never consume randomness, never
change any counter, and are excluded from run artifacts and store
fingerprints (see ``repro.store``).
"""

from __future__ import annotations

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


def build_trajectory(
    window: int,
    num_slots: int,
    snapshots: Sequence[WindowSnapshot],
    *,
    budget: float | None = None,
) -> DynamicsTrajectory:
    """Turn boundary snapshots into per-window series.

    This is the single code path both engines share: the per-window counts
    are consecutive snapshot differences, the gauges are the snapshot's
    end-of-window values, and every float operation happens here — so equal
    snapshots imply bit-identical trajectories.
    """
    k = len(snapshots)
    slots = np.zeros(k, dtype=np.int64)
    counts = {
        name: np.zeros(k, dtype=np.int64)
        for name in COUNT_FIELDS
        if name != "slots"
    }
    gauges = {name: np.full(k, math.nan) for name in GAUGE_FIELDS}
    prev_slots = prev_arrivals = prev_successes = 0
    prev_collisions = prev_jammed = 0
    for j, snap in enumerate(snapshots):
        width = snap.num_slots - prev_slots
        if width <= 0:
            raise ValueError("window snapshots must advance num_slots")
        slots[j] = width
        successes = snap.successes - prev_successes
        collisions = snap.collisions - prev_collisions
        jammed = snap.jammed - prev_jammed
        counts["arrivals"][j] = snap.arrivals - prev_arrivals
        counts["successes"][j] = successes
        counts["collisions"][j] = collisions
        counts["jammed"][j] = jammed
        counts["idle"][j] = width - successes - collisions - jammed
        counts["backlog"][j] = snap.backlog
        counts["cumulative_sends"][j] = snap.sends
        counts["cumulative_listens"][j] = snap.listens
        gauges["throughput"][j] = successes / width
        gauges["contention"][j] = snap.probability_sum
        if snap.window_count > 0:
            gauges["mean_window"][j] = snap.window_sum / snap.window_count
        if snap.backlog > 0:
            gauges["mean_send_probability"][j] = (
                snap.probability_sum / snap.backlog
            )
        if budget is not None:
            gauges["jammer_budget_remaining"][j] = budget - snap.jammed
        prev_slots = snap.num_slots
        prev_arrivals = snap.arrivals
        prev_successes = snap.successes
        prev_collisions = snap.collisions
        prev_jammed = snap.jammed
    if k and prev_slots != num_slots:
        raise ValueError(
            f"final snapshot covers {prev_slots} slots, execution ran "
            f"{num_slots}"
        )
    return DynamicsTrajectory(
        window=int(window), num_slots=int(num_slots), slots=slots,
        **counts, **gauges,
    )


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
