"""Cross-seed aggregation of run summaries.

Experiments replicate each configuration over several seeds; this module
defines the per-run summary record and aggregation over replicates (mean,
min, max per numeric field), which is what experiment tables report, and
the nearest-rank quantile the energy, latency and backlog statistics share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RunSummary:
    """Headline metrics of one execution (one protocol, one seed)."""

    protocol: str
    seed: int
    num_arrivals: int
    num_delivered: int
    num_active_slots: int
    num_jammed_active: int
    num_slots: int
    throughput: float
    implicit_throughput: float
    mean_accesses: float
    max_accesses: float
    mean_sends: float
    mean_listens: float
    max_backlog: int
    makespan: float
    drained: bool

    NUMERIC_FIELDS = (
        "num_arrivals",
        "num_delivered",
        "num_active_slots",
        "num_jammed_active",
        "num_slots",
        "throughput",
        "implicit_throughput",
        "mean_accesses",
        "max_accesses",
        "mean_sends",
        "mean_listens",
        "max_backlog",
        "makespan",
    )


@dataclass(frozen=True)
class AggregatedMetric:
    """Mean / min / max / standard deviation of one metric over replicates."""

    mean: float
    minimum: float
    maximum: float
    std: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4g} [{self.minimum:.4g}, {self.maximum:.4g}]"


def aggregate_summaries(
    summaries: Sequence[RunSummary],
) -> dict[str, AggregatedMetric]:
    """Aggregate replicate summaries field-by-field.

    All summaries must describe the same protocol; aggregation across
    protocols would be meaningless and is rejected.
    """
    if not summaries:
        raise ValueError("no summaries to aggregate")
    protocols = {summary.protocol for summary in summaries}
    if len(protocols) > 1:
        raise ValueError(f"cannot aggregate across protocols: {sorted(protocols)}")
    aggregated: dict[str, AggregatedMetric] = {}
    for name in RunSummary.NUMERIC_FIELDS:
        values = [float(getattr(summary, name)) for summary in summaries]
        mean = sum(values) / len(values)
        variance = sum((v - mean) ** 2 for v in values) / len(values)
        aggregated[name] = AggregatedMetric(
            mean=mean,
            minimum=min(values),
            maximum=max(values),
            std=math.sqrt(variance),
        )
    return aggregated


def nearest_rank_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("cannot take a quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[index])
