"""Tests for the convenience runner and the SimulationResult API."""

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import PeriodicJamming
from repro.core.low_sensing import LowSensingBackoff
from repro.sim.runner import run_simulation


class TestRunSimulation:
    def test_arrivals_shortcut(self):
        result = run_simulation(LowSensingBackoff(), arrivals=BatchArrivals(10), seed=1)
        assert result.num_delivered == 10

    def test_jammer_shortcut(self):
        result = run_simulation(
            LowSensingBackoff(),
            arrivals=BatchArrivals(10),
            jammer=PeriodicJamming(period=3),
            seed=1,
        )
        assert result.num_jammed_active > 0

    def test_adversary_and_shortcuts_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            run_simulation(
                LowSensingBackoff(),
                adversary=CompositeAdversary(BatchArrivals(1)),
                arrivals=BatchArrivals(1),
            )

    def test_explicit_adversary(self):
        result = run_simulation(
            LowSensingBackoff(),
            adversary=CompositeAdversary(BatchArrivals(5)),
            seed=2,
        )
        assert result.num_delivered == 5


class TestSimulationResultApi:
    def setup_method(self):
        self.result = run_simulation(
            LowSensingBackoff(),
            arrivals=BatchArrivals(30),
            jammer=PeriodicJamming(period=7),
            seed=3,
        )

    def test_summary_row_is_consistent(self):
        summary = self.result.summary()
        assert summary.protocol == "low-sensing"
        assert summary.num_arrivals == 30
        assert summary.num_delivered == 30
        assert summary.throughput == pytest.approx(self.result.throughput)
        assert summary.drained

    def test_series_lengths_match_slots(self):
        assert len(self.result.throughput_series()) == self.result.num_slots
        assert len(self.result.implicit_throughput_series()) == self.result.num_slots
        assert len(self.result.backlog_series()) == self.result.num_slots

    def test_final_series_values_match_scalars(self):
        assert self.result.throughput_series()[-1] == pytest.approx(self.result.throughput)
        assert self.result.implicit_throughput_series()[-1] == pytest.approx(
            self.result.implicit_throughput
        )

    def test_observation_1_1_throughputs_coincide_when_drained(self):
        # Observation 1.1: at an inactive slot (here: end of a drained run),
        # throughput and implicit throughput are equal.
        assert self.result.drained
        assert self.result.throughput == pytest.approx(self.result.implicit_throughput)

    def test_energy_statistics_cover_all_packets(self):
        stats = self.result.energy_statistics()
        assert stats.num_packets == 30
        assert stats.max_accesses >= stats.p95_accesses >= stats.mean_accesses / 10

    def test_latency_statistics(self):
        stats = self.result.latency_statistics()
        assert stats.num_delivered == 30
        assert stats.num_undelivered == 0
        assert stats.makespan >= stats.p50_latency

    def test_packet_records_departures_within_execution(self):
        for packet in self.result.packets:
            assert packet.departed
            assert 0 <= packet.arrival_slot <= packet.departure_slot < self.result.num_slots
