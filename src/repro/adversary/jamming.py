"""Jamming strategies.

A jammer decides, per slot, whether to broadcast noise into the slot.  The
paper distinguishes two timing models:

* an **adaptive** jammer commits its decision for slot ``t`` knowing the
  full system state up to the end of slot ``t − 1`` (``jam``);
* a **reactive** jammer additionally sees which packets transmit in slot
  ``t`` before deciding (``reactive_jam``), so it can cheaply destroy
  would-be successes or starve a targeted packet (Section 1.3).

Several strategies track a finite jamming budget ``J``; the paper's bounds
are parameterised by the realised number of jammed slots, so budgeted
strategies are what the energy experiments sweep.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Hashable, Sequence

from repro.adversary.base import SystemView
from repro.core.contention import DEFAULT_C_HIGH, DEFAULT_C_LOW

PacketId = Hashable


class Jammer(abc.ABC):
    """Per-slot jamming strategy.

    A strategy decides from the slot index, its own coins and budget, and
    the counts of the :class:`~repro.adversary.base.SystemView` it is
    handed (the backlog, the contention, the cumulative counters).
    """

    #: Whether the strategy needs the reactive hook (sees current senders).
    reactive: bool = False

    #: Whether the strategy reads ``SystemView.contention`` (adaptive
    #: state-aware strategies); lets the engine skip computing it otherwise.
    needs_contention: bool = False

    @abc.abstractmethod
    def jam(self, view: SystemView, rng: Random) -> bool:
        """Adaptive (pre-slot) jamming decision."""

    def reactive_jam(
        self, view: SystemView, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        """Reactive (post-send) decision; only called when ``reactive``."""
        return False

    def jams_used(self) -> int:
        """Number of jammed slots the strategy has produced so far."""
        return 0

    def describe(self) -> dict[str, object]:
        return {"type": type(self).__name__, "reactive": self.reactive}


class _BudgetedJammer(Jammer):
    """Shared bookkeeping for strategies with a finite jamming budget."""

    def __init__(self, budget: int | None) -> None:
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        self.budget = budget
        self._used = 0

    def _budget_available(self) -> bool:
        return self.budget is None or self._used < self.budget

    def _spend(self) -> bool:
        if not self._budget_available():
            return False
        self._used += 1
        return True

    def jams_used(self) -> int:
        return self._used

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["budget"] = self.budget
        return description


class NoJamming(Jammer):
    """Never jams."""

    def jam(self, view: SystemView, rng: Random) -> bool:
        return False


class BernoulliJamming(_BudgetedJammer):
    """Jam each slot independently with probability ``probability``.

    An optional ``budget`` caps the total number of jammed slots, and
    ``only_active`` restricts jamming to slots with at least one active
    packet (jamming inactive slots is wasted effort for the adversary and
    muddies the (N+J)/S accounting, so experiments default to True).
    """

    def __init__(
        self,
        probability: float,
        budget: int | None = None,
        only_active: bool = True,
    ) -> None:
        super().__init__(budget)
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self.probability = probability
        self.only_active = only_active

    def jam(self, view: SystemView, rng: Random) -> bool:
        if self.only_active and not view.backlog:
            return False
        if rng.random() >= self.probability:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["probability"] = self.probability
        description["only_active"] = self.only_active
        return description


class PeriodicJamming(_BudgetedJammer):
    """Jam every ``period``-th slot starting at ``offset``."""

    def __init__(self, period: int, offset: int = 0, budget: int | None = None) -> None:
        super().__init__(budget)
        if period <= 0:
            raise ValueError("period must be positive")
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.period = period
        self.offset = offset

    def jam(self, view: SystemView, rng: Random) -> bool:
        if view.slot < self.offset or (view.slot - self.offset) % self.period != 0:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["period"] = self.period
        description["offset"] = self.offset
        return description


class BurstJamming(_BudgetedJammer):
    """Jam a contiguous burst of ``length`` slots starting at ``start``.

    If ``period`` is given, the burst repeats every ``period`` slots.  Burst
    jamming is the canonical "denial window" attack and the workload used to
    show that LOW-SENSING BACKOFF recovers after sustained noise.
    """

    def __init__(
        self,
        start: int,
        length: int,
        period: int | None = None,
        budget: int | None = None,
    ) -> None:
        super().__init__(budget)
        if start < 0:
            raise ValueError("start must be non-negative")
        if length < 0:
            raise ValueError("length must be non-negative")
        if period is not None and period <= 0:
            raise ValueError("period must be positive")
        if period is not None and length > period:
            raise ValueError("burst length cannot exceed the period")
        self.start = start
        self.length = length
        self.period = period

    def jam(self, view: SystemView, rng: Random) -> bool:
        slot = view.slot
        if slot < self.start:
            return False
        offset = slot - self.start
        in_burst = (offset % self.period) < self.length if self.period else offset < self.length
        if not in_burst:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["start"] = self.start
        description["length"] = self.length
        description["period"] = self.period
        return description


class BudgetedRandomJamming(_BudgetedJammer):
    """Spend a jamming budget uniformly at random over a horizon.

    Each slot before ``horizon`` is jammed with probability
    ``budget / horizon`` until the budget is exhausted, which spreads ``~J``
    jams roughly uniformly without requiring a pre-committed schedule.
    """

    def __init__(self, budget: int, horizon: int) -> None:
        super().__init__(budget)
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        self.horizon = horizon

    def jam(self, view: SystemView, rng: Random) -> bool:
        if view.slot >= self.horizon:
            return False
        probability = (self.budget or 0) / self.horizon
        if rng.random() >= probability:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["horizon"] = self.horizon
        return description


class AdaptiveContentionJammer(_BudgetedJammer):
    """Adaptive strategy: jam when the contention is in a target regime.

    The adaptive adversary can read every packet's window (Section 1.1), so
    it knows the contention ``C(t)`` exactly.  Jamming good-contention slots
    destroys the slots most likely to carry a success; jamming low-contention
    slots tricks listeners into backing off when they should back on.  Both
    target regimes are available; "good" is the default and is the stronger
    attack against throughput.
    """

    needs_contention = True

    def __init__(
        self,
        budget: int | None,
        target_regime: str = "good",
        c_low: float = DEFAULT_C_LOW,
        c_high: float = DEFAULT_C_HIGH,
    ) -> None:
        super().__init__(budget)
        if target_regime not in ("low", "good", "high", "any"):
            raise ValueError("target_regime must be one of low/good/high/any")
        self.target_regime = target_regime
        self.c_low = c_low
        self.c_high = c_high

    def jam(self, view: SystemView, rng: Random) -> bool:
        if not view.backlog:
            return False
        contention = view.contention
        if self.target_regime == "low":
            in_target = contention < self.c_low
        elif self.target_regime == "good":
            in_target = self.c_low <= contention <= self.c_high
        elif self.target_regime == "high":
            in_target = contention > self.c_high
        else:
            in_target = True
        if not in_target:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["target_regime"] = self.target_regime
        description["c_low"] = self.c_low
        description["c_high"] = self.c_high
        return description


class ReactiveTargetedJammer(_BudgetedJammer):
    """Reactive strategy: jam whenever a targeted packet transmits.

    This is the attack from Section 1.3 used to show that per-packet channel
    access bounds cannot survive reactivity: the targeted packet can never
    succeed while the budget lasts, so its accesses grow linearly in the
    jamming budget, while the *average* over packets stays polylogarithmic
    (Theorem 1.9) — experiment E6.

    ``target_index`` selects which packet (by arrival order) is persecuted;
    when that packet eventually succeeds (after the budget is exhausted) the
    jammer retires.  Packet ids are assigned in arrival order, so the target
    is the id ``target_index``.  The jammer sees it once it arrived in an
    earlier slot (``target_index < view.arrivals_so_far``): a target that
    sends in its own arrival slot goes unjammed there.
    """

    reactive = True

    def __init__(self, budget: int | None, target_index: int = 0) -> None:
        super().__init__(budget)
        if target_index < 0:
            raise ValueError("target_index must be non-negative")
        self.target_index = target_index

    def jam(self, view: SystemView, rng: Random) -> bool:
        return False

    def reactive_jam(
        self, view: SystemView, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        target = self.target_index
        if target >= view.arrivals_so_far or target not in senders:
            return False
        return self._spend()

    def describe(self) -> dict[str, object]:
        description = super().describe()
        description["target_index"] = self.target_index
        return description


class ReactiveSuccessJammer(_BudgetedJammer):
    """Reactive strategy: jam every slot that would otherwise be a success.

    The strongest throughput attack available to a reactive adversary within
    a budget ``J``: it converts up to ``J`` successes into noise.  Used to
    verify the (N+J)/S throughput accounting and the average-energy bound of
    Theorem 1.9.
    """

    reactive = True

    def __init__(self, budget: int | None) -> None:
        super().__init__(budget)

    def jam(self, view: SystemView, rng: Random) -> bool:
        return False

    def reactive_jam(
        self, view: SystemView, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        if len(senders) != 1:
            return False
        return self._spend()
