"""Latency: slots from a packet's arrival to its success.

Latency is not one of the paper's headline metrics, but makespan (the
latency of the slowest packet on a batch) is the classical quantity in the
batch-arrival literature and makes the E1 comparison tables more
interpretable; it also underpins the fairness discussion in the paper's
conclusion.  The statistics read the packet records
(:class:`~repro.sim.results.PacketRecord`) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.metrics.summary import nearest_rank_quantile

if TYPE_CHECKING:
    from repro.sim.results import PacketRecord


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


def latency_statistics(packets: Sequence[PacketRecord]) -> LatencyStatistics:
    """Summarise latencies; undelivered packets are counted but excluded."""
    latencies = [p.latency for p in packets]
    delivered = sorted(latency for latency in latencies if latency is not None)
    if not delivered:
        raise ValueError("no delivered packets to summarise")
    n = len(delivered)
    return LatencyStatistics(
        num_delivered=n,
        num_undelivered=len(latencies) - n,
        mean_latency=sum(delivered) / n,
        max_latency=int(delivered[-1]),
        p50_latency=nearest_rank_quantile(delivered, 0.50),
        p95_latency=nearest_rank_quantile(delivered, 0.95),
        p99_latency=nearest_rank_quantile(delivered, 0.99),
    )
