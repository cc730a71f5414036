"""Per-slot metrics collection.

The :class:`MetricsCollector` is the engine's single sink for per-slot
values.  It maintains the cumulative counters that the paper's metrics are
defined over (arrivals, successes, jammed slots, active slots) plus one
record: the slots where an active slot was jammed.  Every other per-slot
series follows from the packet records (every success is a departure), so
:class:`~repro.sim.results.SimulationResult` derives them when read.
"""

from __future__ import annotations

from repro.channel.feedback import SlotOutcome


class MetricsCollector:
    """Accumulates counters for one execution.

    The scalar engine hands :meth:`observe` each slot's values in slot
    order; the vector engine sets the counters directly from its per-slot
    records.  ``jammed_active_slots`` lists, in increasing order, the slots
    that were jammed while active: the jamming ``J_t`` is the one per-slot
    quantity the packet records cannot rebuild.
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

    def observe(
        self,
        outcome: SlotOutcome,
        arrivals: int,
        active_before: int,
        num_senders: int,
        num_listeners: int,
    ) -> None:
        """Record the next slot.

        ``active_before`` counts the packets in the system during the slot
        (after its injections, before its departure).
        """
        slot = self.num_slots
        self.num_slots = slot + 1
        self.num_arrivals += arrivals
        active = active_before > 0
        if active:
            self.num_active_slots += 1
        if outcome is SlotOutcome.JAMMED:
            self.num_jammed += 1
            if active:
                self.num_jammed_active += 1
                self.jammed_active_slots.append(slot)
        elif outcome is SlotOutcome.SUCCESS:
            self.num_successes += 1
        elif outcome is SlotOutcome.COLLISION:
            self.num_collisions += 1
        elif active:  # an empty slot with packets in the system
            self.num_empty_active += 1
        self.total_sends += num_senders
        self.total_listens += num_listeners

    # -- Convenience -----------------------------------------------------

    @property
    def backlog(self) -> int:
        """Backlog after the most recent slot (0 before any slot)."""
        return self.num_arrivals - self.num_successes

    @property
    def total_channel_accesses(self) -> int:
        return self.total_sends + self.total_listens
