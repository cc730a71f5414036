"""Latency: slots from a packet's arrival to its success.

Latency is not one of the paper's headline metrics, but makespan (the
latency of the slowest packet on a batch) is the classical quantity in the
batch-arrival literature and makes the E1 comparison tables more
interpretable; it also underpins the fairness discussion in the paper's
conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.metrics.summary import nearest_rank_quantile


@dataclass(frozen=True)
class PacketLatency:
    """Latency record for one packet (``latency`` is ``None`` if undelivered)."""

    packet_id: int
    arrival_slot: int
    latency: int | None


@dataclass(frozen=True)
class LatencyStatistics:
    """Distributional summary of delivered-packet latencies."""

    num_delivered: int
    num_undelivered: int
    mean_latency: float
    max_latency: int
    p50_latency: float
    p95_latency: float
    p99_latency: float

    @property
    def makespan(self) -> int:
        """Latency of the slowest delivered packet."""
        return self.max_latency

    def as_dict(self) -> dict[str, float]:
        return {
            "num_delivered": self.num_delivered,
            "num_undelivered": self.num_undelivered,
            "mean_latency": self.mean_latency,
            "max_latency": self.max_latency,
            "p50_latency": self.p50_latency,
            "p95_latency": self.p95_latency,
            "p99_latency": self.p99_latency,
        }


def latency_statistics(packets: Sequence[PacketLatency]) -> LatencyStatistics:
    """Summarise latencies; undelivered packets are counted but excluded."""
    delivered = sorted(p.latency for p in packets if p.latency is not None)
    undelivered = sum(1 for p in packets if p.latency is None)
    if not delivered:
        raise ValueError("no delivered packets to summarise")
    n = len(delivered)
    return LatencyStatistics(
        num_delivered=n,
        num_undelivered=undelivered,
        mean_latency=sum(delivered) / n,
        max_latency=int(delivered[-1]),
        p50_latency=nearest_rank_quantile(delivered, 0.50),
        p95_latency=nearest_rank_quantile(delivered, 0.95),
        p99_latency=nearest_rank_quantile(delivered, 0.99),
    )
