"""Backlog time series and stability statistics.

Corollary 1.5 of the paper bounds the number of packets in the system at any
time by ``O(S)`` under (λ, S) adversarial-queuing arrivals with a small
enough constant λ.  Experiment E3 measures the backlog series of an
execution and reports its maximum and high quantiles relative to ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.channel.trace import ExecutionTrace
from repro.metrics.summary import nearest_rank_quantile


@dataclass(frozen=True)
class BacklogStatistics:
    """Summary statistics of a backlog time series."""

    max_backlog: int
    mean_backlog: float
    p50_backlog: float
    p95_backlog: float
    p99_backlog: float
    final_backlog: int
    num_slots: int

    def normalised(self, granularity: int) -> dict[str, float]:
        """Backlog statistics divided by ``S`` (the Corollary 1.5 yardstick)."""
        if granularity <= 0:
            raise ValueError("granularity must be positive")
        return {
            "max_over_s": self.max_backlog / granularity,
            "mean_over_s": self.mean_backlog / granularity,
            "p95_over_s": self.p95_backlog / granularity,
            "p99_over_s": self.p99_backlog / granularity,
        }


def backlog_series(trace: ExecutionTrace) -> list[int]:
    """Per-slot backlog (number of active packets after the slot resolves)."""
    return [record.active_after for record in trace]


def backlog_statistics(series: Sequence[int]) -> BacklogStatistics:
    """Summary statistics for a backlog series (which must be non-empty)."""
    if not series:
        raise ValueError("backlog series is empty")
    ordered = sorted(series)
    return BacklogStatistics(
        max_backlog=int(ordered[-1]),
        mean_backlog=sum(series) / len(series),
        p50_backlog=nearest_rank_quantile(ordered, 0.50),
        p95_backlog=nearest_rank_quantile(ordered, 0.95),
        p99_backlog=nearest_rank_quantile(ordered, 0.99),
        final_backlog=int(series[-1]),
        num_slots=len(series),
    )
