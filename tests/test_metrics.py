"""Tests for metrics: collector, throughput, energy, latency, and summaries."""

import pytest

from repro.channel.feedback import SlotOutcome
from repro.experiments.plan import aggregate_replicate_row
from repro.metrics.collectors import MetricsCollector
from repro.metrics.energy import energy_statistics
from repro.metrics.latency import latency_statistics
from repro.metrics.summary import MEAN_COLUMNS, RunSummary
from repro.metrics.throughput import (
    ThroughputAccounting,
    implicit_throughput_series,
    throughput_series,
)
from repro.sim.results import PacketRecord


class TestMetricsCollector:
    # observe(outcome, arrivals, active_before, num_senders, num_listeners)

    def test_counts_accumulate(self):
        collector = MetricsCollector()
        collector.observe(SlotOutcome.EMPTY, 3, 3, 0, 0)
        collector.observe(SlotOutcome.SUCCESS, 0, 3, 1, 0)
        collector.observe(SlotOutcome.JAMMED, 0, 2, 0, 0)
        collector.observe(SlotOutcome.COLLISION, 0, 2, 2, 0)
        assert collector.num_slots == 4
        assert collector.num_arrivals == 3
        assert collector.num_successes == 1
        assert collector.num_collisions == 1
        assert collector.num_empty_active == 1
        assert collector.num_jammed == 1
        assert collector.num_jammed_active == 1
        assert collector.num_active_slots == 4
        assert collector.backlog == 2

    def test_empty_inactive_slot_is_not_an_empty_active_slot(self):
        collector = MetricsCollector()
        collector.observe(SlotOutcome.EMPTY, 0, 0, 0, 0)
        assert collector.num_slots == 1
        assert collector.num_empty_active == 0
        assert collector.num_active_slots == 0

    def test_jamming_inactive_slot_not_counted_as_active_jam(self):
        collector = MetricsCollector()
        collector.observe(SlotOutcome.JAMMED, 0, 0, 0, 0)
        assert collector.num_jammed == 1
        assert collector.num_jammed_active == 0
        assert collector.num_active_slots == 0

    def test_jammed_active_slots_recorded(self):
        collector = MetricsCollector()
        jammed = SlotOutcome.JAMMED
        collector.observe(jammed, 0, 0, 0, 0)
        collector.observe(jammed, 2, 2, 0, 0)
        collector.observe(SlotOutcome.SUCCESS, 0, 2, 1, 0)
        collector.observe(jammed, 0, 1, 0, 0)
        assert collector.jammed_active_slots == [1, 3]
        assert collector.num_jammed_active == 2
        assert collector.num_jammed == 3

    def test_channel_access_totals(self):
        collector = MetricsCollector()
        collector.observe(SlotOutcome.COLLISION, 0, 5, 2, 3)
        assert collector.total_sends == 2
        assert collector.total_listens == 3
        assert collector.total_channel_accesses == 5


class TestThroughput:
    def test_throughput_without_jamming(self):
        accounting = ThroughputAccounting(
            arrivals=10, successes=10, jammed_active=0, active_slots=40
        )
        assert accounting.throughput == pytest.approx(0.25)
        assert accounting.implicit_throughput == pytest.approx(0.25)

    def test_jamming_counts_in_both_metrics(self):
        accounting = ThroughputAccounting(
            arrivals=10, successes=5, jammed_active=5, active_slots=40
        )
        assert accounting.throughput == pytest.approx(10 / 40)
        assert accounting.implicit_throughput == pytest.approx(15 / 40)

    def test_no_active_slots_is_vacuously_one(self):
        accounting = ThroughputAccounting(
            arrivals=0, successes=0, jammed_active=0, active_slots=0
        )
        assert accounting.throughput == 1.0

    def test_more_successes_than_arrivals_rejected(self):
        with pytest.raises(ValueError):
            ThroughputAccounting(arrivals=1, successes=2, jammed_active=0, active_slots=5)

    def test_series_computation(self):
        successes = [0, 1, 1, 2]
        jams = [0, 0, 1, 1]
        active = [1, 2, 3, 4]
        series = throughput_series(successes, jams, active)
        assert series == [0.0, 0.5, 2 / 3, 0.75]

    def test_implicit_series_before_first_active_slot(self):
        series = implicit_throughput_series([0, 5], [0, 0], [0, 1])
        assert series[0] == 1.0
        assert series[1] == 5.0

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            throughput_series([1], [1, 2], [1, 2])


class TestEnergyStatistics:
    def packets(self):
        return [
            PacketRecord(0, arrival_slot=0, departure_slot=20, sends=2, listens=10),
            PacketRecord(1, arrival_slot=0, departure_slot=9, sends=1, listens=5),
            PacketRecord(2, arrival_slot=3, departure_slot=None, sends=4, listens=40),
        ]

    def test_mean_and_max(self):
        stats = energy_statistics(self.packets())
        assert stats.num_packets == 3
        assert stats.mean_accesses == pytest.approx((12 + 6 + 44) / 3)
        assert stats.max_accesses == 44

    def test_departed_only_filter(self):
        stats = energy_statistics(self.packets(), departed_only=True)
        assert stats.num_packets == 2
        assert stats.max_accesses == 12

    def test_sends_and_listens_split(self):
        stats = energy_statistics(self.packets())
        assert stats.mean_sends == pytest.approx(7 / 3)
        assert stats.mean_listens == pytest.approx(55 / 3)

    def test_quantiles_ordered(self):
        stats = energy_statistics(self.packets())
        assert stats.p50_accesses <= stats.p95_accesses <= stats.p99_accesses <= stats.max_accesses

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            energy_statistics([])


class TestLatencyStatistics:
    def test_basic(self):
        records = [
            PacketRecord(0, arrival_slot=0, departure_slot=4, sends=1, listens=0),
            PacketRecord(1, arrival_slot=0, departure_slot=14, sends=3, listens=2),
            PacketRecord(2, arrival_slot=3, departure_slot=None, sends=2, listens=9),
        ]
        stats = latency_statistics(records)
        assert stats.num_delivered == 2
        assert stats.num_undelivered == 1
        assert stats.mean_latency == pytest.approx(10.0)
        assert stats.makespan == 15

    def test_all_undelivered_rejected(self):
        with pytest.raises(ValueError):
            latency_statistics([PacketRecord(0, 0, None, sends=1, listens=0)])


def make_summary(seed: int, throughput: float, protocol: str = "low-sensing") -> RunSummary:
    return RunSummary(
        protocol=protocol,
        seed=seed,
        num_arrivals=100,
        num_delivered=100,
        num_active_slots=300,
        num_jammed_active=0,
        num_slots=320,
        throughput=throughput,
        implicit_throughput=throughput,
        mean_accesses=50.0,
        max_accesses=100.0,
        mean_sends=3.0,
        mean_listens=47.0,
        max_backlog=100,
        makespan=250.0,
        drained=True,
    )


class _Replicate:
    """A stand-in result whose summary is given."""

    def __init__(self, summary: RunSummary) -> None:
        self._summary = summary

    def summary(self) -> RunSummary:
        return self._summary


class TestSummaryAggregation:
    def test_mean_min_max(self):
        summaries = [make_summary(1, 0.2), make_summary(2, 0.3), make_summary(3, 0.4)]
        row = aggregate_replicate_row(
            [_Replicate(summary) for summary in summaries],
            protocol_name="low-sensing",
            extra_columns={"n": 100},
        )
        # Protocol, sweep columns and replicate count, then one mean per
        # table entry in table order, then whether every replicate drained.
        assert list(row) == [
            "protocol", "n", "replicates",
            *(column for column, _ in MEAN_COLUMNS), "drained",
        ]
        assert row["replicates"] == 3
        assert row["throughput"] == pytest.approx(0.3)
        assert row["active_slots"] == 300.0
        assert row["arrivals"] == 100.0
        assert row["drained"] is True
