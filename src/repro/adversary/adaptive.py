"""Fully custom adaptive adversaries.

Most experiments compose an arrival process with a jammer via
:class:`~repro.adversary.composite.CompositeAdversary`; this module holds
adversaries whose arrival and jamming decisions are *coupled* — the kind of
coordinated strategy an adaptive adversary is allowed (Section 1.1) but that
does not factor cleanly into the two independent pieces.
"""

from __future__ import annotations

from random import Random
from typing import Hashable, Sequence

from repro.adversary.base import Adversary, SystemView

PacketId = Hashable


class BacklogCouplingAdversary(Adversary):
    """Inject whenever the backlog drops, jam whenever it is about to drain.

    A simple coordinated strategy that tries to keep the system perpetually
    "almost empty but never empty": it injects a fresh packet whenever the
    backlog falls below ``target_backlog`` and spends its jamming budget only
    when a single packet remains (the slots in which that packet is most
    likely to finish).  It stresses the L(t) term of the potential function —
    the regime the paper calls out as the hard case for a slow feedback loop —
    and is used in integration tests and the ablation benchmark.

    The adversary stops injecting after ``total_packets`` injections so that
    finite-stream metrics remain well defined.
    """

    def __init__(
        self,
        target_backlog: int,
        total_packets: int,
        jam_budget: int = 0,
    ) -> None:
        if target_backlog < 1:
            raise ValueError("target_backlog must be at least 1")
        if total_packets < 0:
            raise ValueError("total_packets must be non-negative")
        if jam_budget < 0:
            raise ValueError("jam_budget must be non-negative")
        self.target_backlog = target_backlog
        self.total_packets = total_packets
        self.jam_budget = jam_budget
        self._injected = 0
        self._jams_used = 0

    def arrivals(self, view: SystemView, rng: Random) -> int:
        remaining = self.total_packets - self._injected
        if remaining <= 0:
            return 0
        deficit = self.target_backlog - view.backlog
        if deficit <= 0:
            return 0
        injections = min(deficit, remaining)
        self._injected += injections
        return injections

    def jam(self, view: SystemView, rng: Random) -> bool:
        if self._jams_used >= self.jam_budget:
            return False
        if view.backlog != 1:
            return False
        self._jams_used += 1
        return True

    def arrivals_exhausted(self, slot: int) -> bool:
        """No further injections are possible once the packet budget is spent."""
        return self._injected >= self.total_packets

    def describe(self) -> dict[str, object]:
        return {
            "type": "BacklogCouplingAdversary",
            "target_backlog": self.target_backlog,
            "total_packets": self.total_packets,
            "jam_budget": self.jam_budget,
        }
