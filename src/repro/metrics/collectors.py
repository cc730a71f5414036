"""Per-slot metrics collection.

The :class:`MetricsCollector` is the engine's single sink for per-slot
observations.  It maintains the cumulative counters that the paper's metrics
are defined over (arrivals, successes, jammed slots, active slots) plus the
light-weight series (backlog, cumulative counters per slot) that the
throughput and backlog analyses need.  It deliberately stores only integers
per slot so that even 10^5-slot executions stay cheap.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any

from repro.channel.feedback import SlotOutcome


@dataclass(frozen=True, slots=True)
class SlotObservation:
    """What the engine reports to the collector after each slot."""

    slot: int
    outcome: SlotOutcome
    jammed: bool
    arrivals: int
    active_before: int
    active_after: int
    num_senders: int
    num_listeners: int


#: The per-slot series, in the order :class:`MetricsCollector` creates them.
_SERIES = (
    "backlog_series",
    "cumulative_arrivals",
    "cumulative_successes",
    "cumulative_jammed_active",
    "cumulative_active_slots",
)


class MetricsCollector:
    """Accumulates counters and per-slot series for one execution.

    A collector restored from a pickle (a stored or pool-returned result)
    keeps its series packed, 4 bytes a slot instead of ~20 as a list of
    ints, and unpacks each into its list on first read: a process holding
    many loaded results stays small.  Pickling unpacks them, so a result's
    bytes never depend on whether it was loaded.
    """

    def __init__(self, collect_series: bool = True) -> None:
        self.collect_series = collect_series
        # Cumulative counters.
        self.num_slots = 0
        self.num_active_slots = 0
        self.num_arrivals = 0
        self.num_successes = 0
        self.num_collisions = 0
        self.num_empty_active = 0
        self.num_jammed = 0
        self.num_jammed_active = 0
        self.total_sends = 0
        self.total_listens = 0
        # Per-slot series (indices are slot numbers).
        self.backlog_series: list[int] = []
        self.cumulative_arrivals: list[int] = []
        self.cumulative_successes: list[int] = []
        self.cumulative_jammed_active: list[int] = []
        self.cumulative_active_slots: list[int] = []

    def observe(self, observation: SlotObservation) -> None:
        """Record one slot."""
        if observation.slot != self.num_slots:
            raise ValueError(
                f"slots must be observed in order: expected {self.num_slots}, "
                f"got {observation.slot}"
            )
        self.num_slots += 1
        self.num_arrivals += observation.arrivals
        active = observation.active_before > 0
        if active:
            self.num_active_slots += 1
        if observation.jammed:
            self.num_jammed += 1
            if active:
                self.num_jammed_active += 1
        outcome = observation.outcome
        if outcome is SlotOutcome.SUCCESS:
            self.num_successes += 1
        elif outcome is SlotOutcome.COLLISION:
            self.num_collisions += 1
        elif outcome is SlotOutcome.EMPTY and active:
            self.num_empty_active += 1
        self.total_sends += observation.num_senders
        self.total_listens += observation.num_listeners
        if self.collect_series:
            self.backlog_series.append(observation.active_after)
            self.cumulative_arrivals.append(self.num_arrivals)
            self.cumulative_successes.append(self.num_successes)
            self.cumulative_jammed_active.append(self.num_jammed_active)
            self.cumulative_active_slots.append(self.num_active_slots)

    # -- Pickling --------------------------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        packed = state.pop("_packed", {})
        for name in _SERIES:
            state[name] = packed[name].tolist() if name in packed else state.pop(name)
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._packed = {}
        for name, value in state.items():
            if name in _SERIES:
                try:
                    self._packed[name] = array("i", value)
                except OverflowError:
                    self._packed[name] = array("q", value)
            else:
                setattr(self, name, value)

    def __getattr__(self, name: str) -> Any:
        # Reached only for an attribute not set: a series still packed.
        packed = self.__dict__.get("_packed", {})
        if name not in packed:
            raise AttributeError(name)
        values = packed.pop(name).tolist()
        setattr(self, name, values)
        return values

    # -- Convenience -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Backlog after the most recent slot (0 before any slot)."""
        if self.collect_series and self.backlog_series:
            return self.backlog_series[-1]
        return self.num_arrivals - self.num_successes

    @property
    def total_channel_accesses(self) -> int:
        return self.total_sends + self.total_listens
