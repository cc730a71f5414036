"""The per-run summary record and the columns of replicate means.

Experiments replicate each configuration over several seeds; this module
defines the per-run summary record, the table of report-row columns that
average it over replicates, which is what experiment tables report, and
the nearest-rank quantile the energy and latency statistics share.
"""

from __future__ import annotations

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


#: The report-row columns that hold replicate means, in row order, each
#: with the :class:`RunSummary` field it averages.  A sweep row
#: (:func:`repro.experiments.plan.aggregate_replicate_row`) fills every
#: column; a campaign row (:func:`repro.campaigns.campaign_report`) skips
#: the fields the store keeps no metric column for.
MEAN_COLUMNS = (
    ("throughput", "throughput"),
    ("implicit_throughput", "implicit_throughput"),
    ("mean_accesses", "mean_accesses"),
    ("max_accesses", "max_accesses"),
    ("mean_sends", "mean_sends"),
    ("mean_listens", "mean_listens"),
    ("max_backlog", "max_backlog"),
    ("makespan", "makespan"),
    ("active_slots", "num_active_slots"),
    ("jammed_active", "num_jammed_active"),
    ("arrivals", "num_arrivals"),
    ("delivered", "num_delivered"),
)


def nearest_rank_quantile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty sequence."""
    if not sorted_values:
        raise ValueError("cannot take a quantile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return float(sorted_values[index])
