"""Energy: per-packet channel accesses.

Each slot in which a packet sends or listens costs one channel access; sends
and listens are also reported separately because the baselines differ in
kind (binary exponential backoff never listens; full-sensing MW listens in
every active slot).  The statistics here feed the energy experiments
(E4–E6, E8): per-packet maximum, mean, and high quantiles, restricted either
to all packets or to departed packets only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.summary import nearest_rank_quantile


@dataclass(frozen=True)
class PacketEnergy:
    """Energy record for one packet."""

    packet_id: int
    sends: int
    listens: int
    departed: bool

    @property
    def accesses(self) -> int:
        return self.sends + self.listens


@dataclass(frozen=True)
class EnergyStatistics:
    """Distributional summary of per-packet channel accesses."""

    num_packets: int
    mean_accesses: float
    max_accesses: int
    p50_accesses: float
    p95_accesses: float
    p99_accesses: float
    mean_sends: float
    mean_listens: float
    total_accesses: int

    def as_dict(self) -> dict[str, float]:
        return {
            "num_packets": self.num_packets,
            "mean_accesses": self.mean_accesses,
            "max_accesses": self.max_accesses,
            "p50_accesses": self.p50_accesses,
            "p95_accesses": self.p95_accesses,
            "p99_accesses": self.p99_accesses,
            "mean_sends": self.mean_sends,
            "mean_listens": self.mean_listens,
            "total_accesses": self.total_accesses,
        }


def energy_statistics(
    packets: Sequence[PacketEnergy], departed_only: bool = False
) -> EnergyStatistics:
    """Summarise per-packet channel accesses.

    Parameters
    ----------
    packets:
        Per-packet energy records.
    departed_only:
        Restrict to packets that succeeded; useful when an execution was
        truncated at ``max_slots`` and stragglers would skew the statistics.
    """
    selected = [p for p in packets if p.departed] if departed_only else list(packets)
    if not selected:
        raise ValueError("no packets to summarise")
    accesses = sorted(p.accesses for p in selected)
    n = len(selected)
    return EnergyStatistics(
        num_packets=n,
        mean_accesses=sum(accesses) / n,
        max_accesses=int(accesses[-1]),
        p50_accesses=nearest_rank_quantile(accesses, 0.50),
        p95_accesses=nearest_rank_quantile(accesses, 0.95),
        p99_accesses=nearest_rank_quantile(accesses, 0.99),
        mean_sends=sum(p.sends for p in selected) / n,
        mean_listens=sum(p.listens for p in selected) / n,
        total_accesses=sum(accesses),
    )
