"""Measurement: throughput, implicit throughput, energy, latency, backlog.

The definitions follow Section 1.1 of the paper exactly:

* a slot is **active** when at least one packet is in the system during it;
* **throughput** at slot ``t`` is ``(T_t + J_t) / S_t`` where ``T_t`` counts
  successes, ``J_t`` counts jammed (active) slots, and ``S_t`` counts active
  slots so far — without jamming this reduces to ``T_t / S_t``;
* **implicit throughput** at slot ``t`` is ``(N_t + J_t) / S_t`` where
  ``N_t`` counts packet arrivals so far;
* **energy** is the number of channel accesses (sends plus listens) a packet
  performs over its lifetime.

:class:`MetricsCollector` keeps the cumulative counters these are computed
from.  The scalar engine hands it each slot's outcome and counts as plain
values, and the collector numbers the slots itself.
"""

from repro.metrics.collectors import MetricsCollector
from repro.metrics.energy import EnergyStatistics, energy_statistics
from repro.metrics.latency import LatencyStatistics, latency_statistics
from repro.metrics.summary import RunSummary, aggregate_summaries
from repro.metrics.throughput import (
    ThroughputAccounting,
    implicit_throughput_series,
    throughput_series,
)

__all__ = [
    "EnergyStatistics",
    "LatencyStatistics",
    "MetricsCollector",
    "RunSummary",
    "ThroughputAccounting",
    "aggregate_summaries",
    "energy_statistics",
    "implicit_throughput_series",
    "latency_statistics",
    "throughput_series",
]
