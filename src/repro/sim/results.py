"""Simulation results.

A :class:`SimulationResult` bundles everything an execution produced: the
cumulative counters, the optional potential samples and dynamics trajectory,
and per-packet records.  Convenience methods compute the paper's metrics so
experiments, examples, and tests never re-derive them by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.core.potential import PotentialTracker
from repro.metrics.collectors import MetricsCollector
from repro.metrics.energy import EnergyStatistics, PacketEnergy, energy_statistics
from repro.metrics.latency import LatencyStatistics, PacketLatency, latency_statistics
from repro.metrics.summary import RunSummary
from repro.metrics.throughput import (
    ThroughputAccounting,
    implicit_throughput_series,
    throughput_series,
)


@dataclass(frozen=True)
class PacketRecord:
    """Immutable per-packet outcome."""

    packet_id: int
    arrival_slot: int
    departure_slot: int | None
    sends: int
    listens: int

    @property
    def channel_accesses(self) -> int:
        return self.sends + self.listens

    @property
    def departed(self) -> bool:
        return self.departure_slot is not None

    @property
    def latency(self) -> int | None:
        if self.departure_slot is None:
            return None
        return self.departure_slot - self.arrival_slot + 1


@dataclass(frozen=True)
class SlotCounts:
    """The cumulative per-slot counts packet records imply; index ``t`` is slot ``t``.

    ``arrivals``, ``successes`` and ``active_slots`` are the paper's
    ``N_t``, ``T_t`` and ``S_t``; ``backlog`` is the number of packets left
    in the system after slot ``t``.
    """

    arrivals: np.ndarray
    successes: np.ndarray
    active_slots: np.ndarray
    backlog: np.ndarray


@dataclass
class SimulationResult:
    """The outcome of one execution.

    The packet records are the one per-slot representation: every success
    is a departure, so arrivals, successes, backlog and active slots at
    every slot follow from the packets' arrival and departure slots
    (:meth:`slot_counts`), and the collector adds only the jammed active
    slots.  The per-slot series are derived when read, never stored.
    """

    config_description: dict[str, Any]
    protocol_name: str
    seed: int
    num_slots: int
    drained: bool
    collector: MetricsCollector
    packets: list[PacketRecord] = field(default_factory=list)
    potential: PotentialTracker | None = None
    # Optional windowed dynamics trajectory (repro.dynamics).  Result-inert:
    # stripped from run artifacts by the store, persisted separately.
    dynamics: Any | None = None

    # -- Basic counts ---------------------------------------------------------

    @property
    def num_arrivals(self) -> int:
        return self.collector.num_arrivals

    @property
    def num_delivered(self) -> int:
        return self.collector.num_successes

    @property
    def num_active_slots(self) -> int:
        return self.collector.num_active_slots

    @property
    def num_jammed(self) -> int:
        return self.collector.num_jammed

    @property
    def num_jammed_active(self) -> int:
        return self.collector.num_jammed_active

    @property
    def backlog(self) -> int:
        return self.collector.backlog

    # -- Paper metrics --------------------------------------------------------

    def throughput_accounting(self) -> ThroughputAccounting:
        return ThroughputAccounting(
            arrivals=self.num_arrivals,
            successes=self.num_delivered,
            jammed_active=self.num_jammed_active,
            active_slots=self.num_active_slots,
        )

    @property
    def throughput(self) -> float:
        """Overall throughput ``(T + J) / S`` of the execution."""
        return self.throughput_accounting().throughput

    @property
    def implicit_throughput(self) -> float:
        """Implicit throughput ``(N + J) / S`` at the end of the execution."""
        return self.throughput_accounting().implicit_throughput

    def slot_counts(self) -> SlotCounts:
        """The cumulative per-slot counts, rebuilt from the packet records.

        A slot is active when a packet was in the system during it: the
        backlog after the slot plus the packet that departed in it.
        """
        num_slots = self.collector.num_slots
        departures = _per_slot(
            (p.departure_slot for p in self.packets if p.departure_slot is not None),
            num_slots,
        )
        arrivals = np.cumsum(_per_slot((p.arrival_slot for p in self.packets), num_slots))
        successes = np.cumsum(departures)
        backlog = arrivals - successes
        return SlotCounts(
            arrivals=arrivals,
            successes=successes,
            active_slots=np.cumsum(backlog + departures > 0),
            backlog=backlog,
        )

    def _jammed_active_counts(self) -> np.ndarray:
        """The paper's ``J_t``: jammed active slots up to each slot."""
        collector = self.collector
        return np.cumsum(_per_slot(collector.jammed_active_slots, collector.num_slots))

    def throughput_series(self) -> list[float]:
        counts = self.slot_counts()
        return throughput_series(
            counts.successes, self._jammed_active_counts(), counts.active_slots
        )

    def implicit_throughput_series(self) -> list[float]:
        counts = self.slot_counts()
        return implicit_throughput_series(
            counts.arrivals, self._jammed_active_counts(), counts.active_slots
        )

    def backlog_series(self) -> list[int]:
        return self.slot_counts().backlog.tolist()

    # -- Energy and latency -----------------------------------------------------

    def packet_energy(self) -> list[PacketEnergy]:
        return [
            PacketEnergy(
                packet_id=p.packet_id,
                sends=p.sends,
                listens=p.listens,
                departed=p.departed,
            )
            for p in self.packets
        ]

    def energy_statistics(self, departed_only: bool = False) -> EnergyStatistics:
        return energy_statistics(self.packet_energy(), departed_only=departed_only)

    def latency_statistics(self) -> LatencyStatistics:
        records = [
            PacketLatency(
                packet_id=p.packet_id, arrival_slot=p.arrival_slot, latency=p.latency
            )
            for p in self.packets
        ]
        return latency_statistics(records)

    # -- Summaries ---------------------------------------------------------------

    def summary(self) -> RunSummary:
        """Headline metrics as a :class:`RunSummary` row."""
        if self.packets:
            energy = self.energy_statistics()
            mean_accesses = energy.mean_accesses
            max_accesses = float(energy.max_accesses)
            mean_sends = energy.mean_sends
            mean_listens = energy.mean_listens
        else:
            mean_accesses = max_accesses = mean_sends = mean_listens = 0.0
        delivered = [p for p in self.packets if p.departed]
        makespan = float(max((p.latency or 0) for p in delivered)) if delivered else 0.0
        return RunSummary(
            protocol=self.protocol_name,
            seed=self.seed,
            num_arrivals=self.num_arrivals,
            num_delivered=self.num_delivered,
            num_active_slots=self.num_active_slots,
            num_jammed_active=self.num_jammed_active,
            num_slots=self.num_slots,
            throughput=self.throughput,
            implicit_throughput=self.implicit_throughput,
            mean_accesses=mean_accesses,
            max_accesses=max_accesses,
            mean_sends=mean_sends,
            mean_listens=mean_listens,
            max_backlog=int(self.slot_counts().backlog.max(initial=0)),
            makespan=makespan,
            drained=self.drained,
        )


def _per_slot(slots: Iterable[int], num_slots: int) -> np.ndarray:
    """How many of ``slots`` fall on each slot ``0 .. num_slots - 1``."""
    return np.bincount(np.fromiter(slots, dtype=np.int64), minlength=num_slots)
