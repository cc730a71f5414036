"""Packet-arrival processes.

Arrival processes answer one question per slot: how many packets arrive at
the start of this slot?  They range from the trivial batch input used by the
classical backoff literature to the adversarial-queuing model of the paper
(arrivals plus jammed slots bounded by ``λ·S`` in every window of ``S``
consecutive slots), with adversarial placement strategies within each window.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Sequence

from repro.adversary.base import SystemView


class ArrivalProcess(abc.ABC):
    """Decides how many packets arrive at the start of each slot.

    Every built-in process reads only ``view.slot`` and its own coins; a
    subclass may also read the counts of the
    :class:`~repro.adversary.base.SystemView` it is handed.
    """

    @abc.abstractmethod
    def arrivals(self, view: SystemView, rng: Random) -> int:
        """Number of packets injected at ``view.slot`` (non-negative)."""

    def total_planned(self) -> int | None:
        """Upper bound on the arrivals the process will ever produce.

        ``None`` means the process is open-ended.  Runners use
        :meth:`exhausted` (not this bound) to decide when an execution can
        stop; the bound is informational.
        """
        return None

    def exhausted(self, slot: int) -> bool:
        """True when no packet can arrive at ``slot`` or any later slot."""
        return False

    def describe(self) -> dict[str, object]:
        return {"type": type(self).__name__}


class NoArrivals(ArrivalProcess):
    """No packets ever arrive (useful for composing tests)."""

    def arrivals(self, view: SystemView, rng: Random) -> int:
        return 0

    def total_planned(self) -> int:
        return 0

    def exhausted(self, slot: int) -> bool:
        return True


class BatchArrivals(ArrivalProcess):
    """``n`` packets all arrive in a single slot (default slot 0).

    This is the batch/static input on which binary exponential backoff's
    O(1/ln N) throughput is proved [23] and which E1 sweeps.
    """

    def __init__(self, n: int, slot: int = 0) -> None:
        if n < 0:
            raise ValueError("batch size must be non-negative")
        if slot < 0:
            raise ValueError("slot must be non-negative")
        self.n = n
        self.slot = slot

    def arrivals(self, view: SystemView, rng: Random) -> int:
        return self.n if view.slot == self.slot else 0

    def total_planned(self) -> int:
        return self.n

    def exhausted(self, slot: int) -> bool:
        return slot > self.slot

    def describe(self) -> dict[str, object]:
        return {"type": "BatchArrivals", "n": self.n, "slot": self.slot}


class PoissonArrivals(ArrivalProcess):
    """Poisson(λ) arrivals per slot, optionally truncated to a horizon.

    A standard stochastic arrival model; the paper's guarantees are for
    adversarial arrivals, which subsume this case, so Poisson traffic is used
    in examples and as a sanity workload rather than a headline experiment.
    """

    def __init__(self, rate: float, horizon: int | None = None) -> None:
        if rate < 0.0:
            raise ValueError("rate must be non-negative")
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be non-negative")
        self.rate = rate
        self.horizon = horizon

    def arrivals(self, view: SystemView, rng: Random) -> int:
        if self.horizon is not None and view.slot >= self.horizon:
            return 0
        return _poisson_sample(self.rate, rng)

    def exhausted(self, slot: int) -> bool:
        return self.horizon is not None and slot >= self.horizon

    def describe(self) -> dict[str, object]:
        return {"type": "PoissonArrivals", "rate": self.rate, "horizon": self.horizon}


class PeriodicBurstArrivals(ArrivalProcess):
    """A burst of ``burst_size`` packets every ``period`` slots.

    Models the bursty traffic the paper's introduction motivates (many
    devices waking simultaneously); used by the Wi-Fi style example and by
    E2 as a structured adversarial pattern.
    """

    def __init__(
        self,
        burst_size: int,
        period: int,
        start: int = 0,
        num_bursts: int | None = None,
    ) -> None:
        if burst_size < 0:
            raise ValueError("burst_size must be non-negative")
        if period <= 0:
            raise ValueError("period must be positive")
        if start < 0:
            raise ValueError("start must be non-negative")
        if num_bursts is not None and num_bursts < 0:
            raise ValueError("num_bursts must be non-negative")
        self.burst_size = burst_size
        self.period = period
        self.start = start
        self.num_bursts = num_bursts

    def arrivals(self, view: SystemView, rng: Random) -> int:
        slot = view.slot
        if slot < self.start:
            return 0
        offset = slot - self.start
        if offset % self.period != 0:
            return 0
        burst_index = offset // self.period
        if self.num_bursts is not None and burst_index >= self.num_bursts:
            return 0
        return self.burst_size

    def total_planned(self) -> int | None:
        if self.num_bursts is None:
            return None
        return self.burst_size * self.num_bursts

    def exhausted(self, slot: int) -> bool:
        if self.num_bursts is None:
            return False
        last_burst_slot = self.start + (self.num_bursts - 1) * self.period
        return self.num_bursts == 0 or slot > last_burst_slot

    def describe(self) -> dict[str, object]:
        return {
            "type": "PeriodicBurstArrivals",
            "burst_size": self.burst_size,
            "period": self.period,
            "start": self.start,
            "num_bursts": self.num_bursts,
        }


class TraceArrivals(ArrivalProcess):
    """Arrivals replayed from an explicit per-slot count sequence."""

    def __init__(self, counts: Sequence[int]) -> None:
        if any(count < 0 for count in counts):
            raise ValueError("arrival counts must be non-negative")
        self.counts = list(counts)

    def arrivals(self, view: SystemView, rng: Random) -> int:
        if view.slot < len(self.counts):
            return self.counts[view.slot]
        return 0

    def total_planned(self) -> int:
        return sum(self.counts)

    def exhausted(self, slot: int) -> bool:
        return slot >= len(self.counts)

    def describe(self) -> dict[str, object]:
        return {"type": "TraceArrivals", "total": sum(self.counts)}


class AdversarialQueueingArrivals(ArrivalProcess):
    """(λ, S)-bounded adversarial-queuing arrivals with chosen placement.

    In every window of ``granularity`` consecutive slots the process injects
    at most ``floor(rate * granularity * (1 - jam_budget_fraction))``
    packets; the remaining fraction of the window budget is left for a
    cooperating jammer (see :class:`repro.adversary.composite.CompositeAdversary`
    and :class:`repro.queueing.model.QueueingConstraint`, which validates the
    combined sequence).  How the packets are distributed *within* the window
    is adversarial; three placement strategies are provided:

    * ``"front"``  — the whole window budget arrives in the window's first
      slot (the burstiest admissible placement);
    * ``"uniform"`` — arrivals spread evenly across the window;
    * ``"random"`` — each window's arrivals land on uniformly random slots.
    """

    PLACEMENTS = ("front", "uniform", "random")

    def __init__(
        self,
        rate: float,
        granularity: int,
        placement: str = "front",
        horizon: int | None = None,
        jam_budget_fraction: float = 0.0,
    ) -> None:
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        if placement not in self.PLACEMENTS:
            raise ValueError(f"placement must be one of {self.PLACEMENTS}")
        if horizon is not None and horizon < 0:
            raise ValueError("horizon must be non-negative")
        if not 0.0 <= jam_budget_fraction < 1.0:
            raise ValueError("jam_budget_fraction must be in [0, 1)")
        self.rate = rate
        self.granularity = granularity
        self.placement = placement
        self.horizon = horizon
        self.jam_budget_fraction = jam_budget_fraction
        self._window_start: int | None = None
        self._window_plan: list[int] = []

    @property
    def arrivals_per_window(self) -> int:
        """Packets injected per window after reserving the jamming budget."""
        budget = int(self.rate * self.granularity)
        return int(budget * (1.0 - self.jam_budget_fraction))

    def arrivals(self, view: SystemView, rng: Random) -> int:
        slot = view.slot
        if self.horizon is not None and slot >= self.horizon:
            return 0
        window_start = (slot // self.granularity) * self.granularity
        if window_start != self._window_start:
            self._window_start = window_start
            self._window_plan = self._plan_window(rng)
        return self._window_plan[slot - window_start]

    def _plan_window(self, rng: Random) -> list[int]:
        """Per-slot arrival counts for one window under the placement rule."""
        plan = [0] * self.granularity
        budget = self.arrivals_per_window
        if budget <= 0:
            return plan
        if self.placement == "front":
            plan[0] = budget
        elif self.placement == "uniform":
            base = budget // self.granularity
            remainder = budget % self.granularity
            stride = self.granularity / remainder if remainder else 0.0
            for index in range(self.granularity):
                plan[index] = base
            for k in range(remainder):
                plan[int(k * stride)] += 1
        else:  # random
            for _ in range(budget):
                plan[rng.randrange(self.granularity)] += 1
        return plan

    def total_planned(self) -> int | None:
        if self.horizon is None:
            return None
        full_windows, remainder = divmod(self.horizon, self.granularity)
        total = full_windows * self.arrivals_per_window
        # A partial final window contributes at most a full window budget
        # (exactly that much under "front" placement, possibly less under
        # "uniform"/"random"); report the upper bound.
        if remainder:
            total += self.arrivals_per_window
        return total

    def exhausted(self, slot: int) -> bool:
        return self.horizon is not None and slot >= self.horizon

    def describe(self) -> dict[str, object]:
        return {
            "type": "AdversarialQueueingArrivals",
            "rate": self.rate,
            "granularity": self.granularity,
            "placement": self.placement,
            "horizon": self.horizon,
            "jam_budget_fraction": self.jam_budget_fraction,
        }


def _poisson_sample(rate: float, rng: Random) -> int:
    """Sample a Poisson(rate) variate using inversion (rates here are small)."""
    if rate == 0.0:
        return 0
    # Knuth's algorithm is fine for the per-slot rates (< a few) used here.
    import math

    threshold = math.exp(-rate)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count
