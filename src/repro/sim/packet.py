"""Packet runtime state.

The :class:`Packet` wraps a protocol's per-packet state with the bookkeeping
the engine and the metrics need: when the packet arrived, how many channel
accesses (sends and listens) it has made, and when it departed.  Channel
accesses are the paper's energy measure (Theorem 1.6 onward): each slot in
which the packet sends or listens costs exactly one access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from repro.protocols.base import PacketState


@dataclass
class Packet:
    """A packet in the system (or one that has already departed)."""

    packet_id: int
    arrival_slot: int
    state: PacketState
    rng: Random = field(repr=False)
    sends: int = 0
    listens: int = 0
    departure_slot: int | None = None

    @property
    def channel_accesses(self) -> int:
        """Total channel accesses (each send or listen costs one)."""
        return self.sends + self.listens

    @property
    def departed(self) -> bool:
        return self.departure_slot is not None

    @property
    def latency(self) -> int | None:
        """Slots from arrival to success, inclusive; ``None`` if still active."""
        if self.departure_slot is None:
            return None
        return self.departure_slot - self.arrival_slot + 1

    def mark_departed(self, slot: int) -> None:
        if self.departure_slot is not None:
            raise ValueError(f"packet {self.packet_id} already departed")
        if slot < self.arrival_slot:
            raise ValueError("departure cannot precede arrival")
        self.departure_slot = slot
