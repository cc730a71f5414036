"""Per-slot metrics collection.

The :class:`MetricsCollector` is the engine's single sink for per-slot
observations.  It maintains the cumulative counters that the paper's metrics
are defined over (arrivals, successes, jammed slots, active slots) plus one
record: the slots where an active slot was jammed.  Every other per-slot
series follows from the packet records (every success is a departure), so
:class:`~repro.sim.results.SimulationResult` derives them when read.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class MetricsCollector:
    """Accumulates counters for one execution.

    ``jammed_active_slots`` lists, in increasing order, the slots that were
    jammed while active: the jamming ``J_t`` is the one per-slot quantity
    the packet records cannot rebuild.
    """

    def __init__(self) -> None:
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
        self.jammed_active_slots: list[int] = []

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
                self.jammed_active_slots.append(observation.slot)
        outcome = observation.outcome
        if outcome is SlotOutcome.SUCCESS:
            self.num_successes += 1
        elif outcome is SlotOutcome.COLLISION:
            self.num_collisions += 1
        elif outcome is SlotOutcome.EMPTY and active:
            self.num_empty_active += 1
        self.total_sends += observation.num_senders
        self.total_listens += observation.num_listeners

    # -- Convenience -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Backlog after the most recent slot (0 before any slot)."""
        return self.num_arrivals - self.num_successes

    @property
    def total_channel_accesses(self) -> int:
        return self.total_sends + self.total_listens
