"""Composition of an arrival process and a jammer into a full adversary."""

from __future__ import annotations

from random import Random
from typing import Hashable, Sequence

from repro.adversary.arrivals import ArrivalProcess, NoArrivals
from repro.adversary.base import Adversary, SystemView
from repro.adversary.jamming import Jammer, NoJamming

PacketId = Hashable


class CompositeAdversary(Adversary):
    """An adversary assembled from an arrival process and a jammer.

    Most experiments are expressed this way: pick a workload (arrivals) and
    an attack (jamming) independently and combine them.  The composite
    forwards the reactive hook to the jammer and reports whether it is
    reactive so the engine only pays the reactive-path cost when needed.
    """

    def __init__(
        self,
        arrival_process: ArrivalProcess | None = None,
        jammer: Jammer | None = None,
    ) -> None:
        self.arrival_process = arrival_process or NoArrivals()
        self.jammer = jammer or NoJamming()
        self.reactive = self.jammer.reactive
        self.needs_contention = self.jammer.needs_contention

    def arrivals(self, view: SystemView, rng: Random) -> int:
        return self.arrival_process.arrivals(view, rng)

    def jam(self, view: SystemView, rng: Random) -> bool:
        return self.jammer.jam(view, rng)

    def reactive_jam(
        self, view: SystemView, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        return self.jammer.reactive_jam(view, senders, rng)

    def arrivals_exhausted(self, slot: int) -> bool:
        """True when the arrival process can inject no further packets."""
        return self.arrival_process.exhausted(slot)

    def describe(self) -> dict[str, object]:
        return {
            "type": "CompositeAdversary",
            "arrivals": self.arrival_process.describe(),
            "jammer": self.jammer.describe(),
            "reactive": self.reactive,
        }
