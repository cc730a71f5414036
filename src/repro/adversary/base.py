"""Adversary interfaces and the per-slot system view they observe.

The adaptive adversary of the paper bases its decisions for slot ``t`` on the
state of the system up to the end of slot ``t − 1``, but not on the coin
flips of slot ``t`` itself.  Every adversary implemented here reads counts
from that state — the backlog, the contention ``C(t)`` and the cumulative
arrival, departure and jamming counters — so :class:`SystemView` holds
exactly those counts.  A reactive adversary additionally gets to see the set
of senders of the current slot through :meth:`Adversary.reactive_jam` before
the outcome is committed.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from random import Random
from typing import Hashable, Sequence

from repro.channel.feedback import SlotOutcome

PacketId = Hashable


@dataclass(slots=True)
class SystemView:
    """The counts visible to an adaptive adversary before a slot is played.

    The engine builds a fresh view every slot (positionally, in field
    order), and no adversary writes to it.  Packet ids are assigned in
    arrival order, so the packets that arrived before this slot are exactly
    the ids below ``arrivals_so_far``.

    Attributes
    ----------
    slot:
        Index of the slot about to be played.
    backlog:
        Number of packets in the system before this slot's injections.
    contention:
        Sum of the known sending probabilities of those packets (the
        paper's ``C(t)``).  The engine computes it only when something reads
        it — an adversary with ``needs_contention``, the potential tracker
        or the trace — and passes ``0.0`` otherwise.
    arrivals_so_far, departures_so_far, jammed_so_far:
        Cumulative counts up to and including the previous slot.
    active_slots_so_far:
        Number of slots so far with at least one active packet.
    last_outcome:
        Outcome of the previous slot (``None`` before the first slot).
    """

    slot: int
    backlog: int = 0
    contention: float = 0.0
    arrivals_so_far: int = 0
    departures_so_far: int = 0
    jammed_so_far: int = 0
    active_slots_so_far: int = 0
    last_outcome: SlotOutcome | None = None


class Adversary(abc.ABC):
    """Full adversary: decides injections and jamming for every slot."""

    #: Whether the adversary uses the reactive hook.  The engine only calls
    #: :meth:`reactive_jam` when this is True, which keeps the common case
    #: cheap and makes the adaptive/reactive distinction explicit in results.
    reactive: bool = False

    #: Whether the adversary reads ``SystemView.contention``.  The engine
    #: skips the O(active packets) contention computation when no consumer
    #: needs it.
    needs_contention: bool = False

    @abc.abstractmethod
    def arrivals(self, view: SystemView, rng: Random) -> int:
        """Number of packets to inject at the start of ``view.slot``."""

    @abc.abstractmethod
    def jam(self, view: SystemView, rng: Random) -> bool:
        """Whether to jam ``view.slot`` (decided before the packets' coins)."""

    def reactive_jam(
        self, view: SystemView, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        """Reactive jamming decision, made after seeing the slot's senders.

        Only consulted when :attr:`reactive` is True and :meth:`jam` returned
        False for the slot.  The default implementation never jams.
        """
        return False

    def arrivals_exhausted(self, slot: int) -> bool:
        """True when no packet can arrive at ``slot`` or any later slot.

        A run that stops when drained ends once this holds and no packet is
        left.  The default never exhausts.
        """
        return False

    def describe(self) -> dict[str, object]:
        return {"type": type(self).__name__, "reactive": self.reactive}
