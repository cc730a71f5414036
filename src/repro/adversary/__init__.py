"""Adversaries: packet-arrival processes and jamming strategies.

The paper's adversary controls, for every slot, how many packets are injected
and whether the slot is jammed (Section 1.1).  The adversary is *adaptive*:
it sees the full system state — including every packet's internal window —
up to the end of the previous slot, but not the current slot's coin flips.
A *reactive* adversary (Section 1.3) additionally sees which packets transmit
in the current slot before committing its jamming decision for that slot.
Every strategy here reads counts from that state, the
:class:`~repro.adversary.base.SystemView`.

This subpackage factors the adversary into an arrival process and a jammer,
combined by :class:`~repro.adversary.composite.CompositeAdversary`.  All
strategies draw randomness from an engine-supplied random source so runs are
reproducible per seed.  Piecewise time-varying behaviour is expressed with
the schedule DSL (:mod:`repro.scenarios.schedule`) and driven through the
adapters in :mod:`repro.adversary.scheduled`.
"""

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    ArrivalProcess,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.adversary.base import Adversary, SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    Jammer,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming

__all__ = [
    "AdaptiveContentionJammer",
    "Adversary",
    "AdversarialQueueingArrivals",
    "ArrivalProcess",
    "BatchArrivals",
    "BernoulliJamming",
    "BudgetedRandomJamming",
    "BurstJamming",
    "CompositeAdversary",
    "Jammer",
    "NoArrivals",
    "NoJamming",
    "PeriodicBurstArrivals",
    "PeriodicJamming",
    "PoissonArrivals",
    "ReactiveSuccessJammer",
    "ReactiveTargetedJammer",
    "ScheduledArrivals",
    "ScheduledJamming",
    "SystemView",
    "TraceArrivals",
]
