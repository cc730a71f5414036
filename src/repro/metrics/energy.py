"""Energy: per-packet channel accesses.

Each slot in which a packet sends or listens costs one channel access; sends
and listens are also reported separately because the baselines differ in
kind (binary exponential backoff never listens; full-sensing MW listens in
every active slot).  The statistics here feed the energy experiments
(E4–E6, E8): per-packet maximum, mean, and high quantiles, restricted either
to all packets or to departed packets only.  They read the packet records
(:class:`~repro.sim.results.PacketRecord`) directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.metrics.summary import nearest_rank_quantile

if TYPE_CHECKING:
    from repro.sim.results import PacketRecord


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


def energy_statistics(
    packets: Sequence[PacketRecord], departed_only: bool = False
) -> EnergyStatistics:
    """Summarise per-packet channel accesses.

    Parameters
    ----------
    packets:
        Per-packet records.
    departed_only:
        Restrict to packets that succeeded; useful when an execution was
        truncated at ``max_slots`` and stragglers would skew the statistics.
    """
    selected = [p for p in packets if p.departed] if departed_only else list(packets)
    if not selected:
        raise ValueError("no packets to summarise")
    accesses = sorted(p.channel_accesses for p in selected)
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
