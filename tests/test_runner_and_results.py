"""Tests for the convenience runner and the SimulationResult API."""

import pickle

import pytest

from repro.adversary.arrivals import BatchArrivals, PoissonArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming, PeriodicJamming
from repro.core.low_sensing import LowSensingBackoff
from repro.exec import SerialBackend, VectorBackend
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.scenarios.catalog import get_scenario
from repro.scenarios.runner import build_plan
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.runner import run_simulation
from repro.sim.vector import VectorSimulator
from tests.conftest import run_specs


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

    def test_open_ended_arrivals_run_to_max_slots(self):
        # Arrivals without a horizon never exhaust, so the run goes on
        # through every stretch the system empties, to the cap.
        result = run_simulation(
            LowSensingBackoff(), arrivals=PoissonArrivals(0.05), seed=4, max_slots=800
        )
        assert result.num_slots == 800
        assert not result.drained
        assert result.num_arrivals == result.num_delivered + result.backlog
        assert 0 in result.backlog_series()


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


def _recorded_runs(engine, protocol, jammer):
    """Runs of Poisson arrivals (the system empties and refills) that record
    every slot on their own, in a window-1 dynamics trajectory."""
    arrivals = PoissonArrivals(0.05, horizon=1500)
    seeds = [5, 6]
    if engine == "vector":
        return VectorSimulator.from_specs(
            run_specs(
                protocol,
                CompositeAdversary(arrivals, jammer),
                seeds,
                max_slots=3000,
                dynamics_window=1,
            )
        ).run()
    return [
        Simulator(
            SimulationConfig(
                protocol=protocol,
                adversary=CompositeAdversary(arrivals, jammer),
                seed=seed,
                max_slots=3000,
                dynamics_window=1,
            )
        ).run()
        for seed in seeds
    ]


def _recorded_slots(result):
    """Per slot: (success, jammed, active, backlog after the slot)."""
    trajectory = result.dynamics
    assert trajectory.window == 1
    # A success departs in its slot, so the slot was active even when the
    # backlog after it is 0.
    return [
        (bool(success), bool(jammed), backlog + success > 0, backlog)
        for success, jammed, backlog in zip(
            trajectory.successes.tolist(),
            trajectory.jammed.tolist(),
            trajectory.backlog.tolist(),
        )
    ]


def _recorded_throughput(slots):
    """``(T_t + J_t) / S_t`` rebuilt slot by slot from the recorded slots."""
    series, successes, jammed, active = [], 0, 0, 0
    for success, was_jammed, was_active, _ in slots:
        successes += success
        if was_active:
            active += 1
            jammed += was_jammed
        series.append(1.0 if active == 0 else (successes + jammed) / active)
    return series


class TestDerivedSeries:
    """The per-slot series are derived from packet records and jammed slots;
    a window-1 dynamics trajectory records every slot independently, so it
    is the cross-check."""

    @pytest.mark.parametrize("engine", ["serial", "vector"])
    @pytest.mark.parametrize(
        "protocol", [LowSensingBackoff(), BinaryExponentialBackoff()], ids=["lsb", "beb"]
    )
    def test_series_match_the_recorded_slots(self, engine, protocol):
        # Jamming inactive slots too: they must count in neither J_t nor S_t.
        jammer = BernoulliJamming(0.2, only_active=False)
        for result in _recorded_runs(engine, protocol, jammer):
            slots = _recorded_slots(result)
            assert len(slots) == result.num_slots
            assert any(not active for _, _, active, _ in slots)
            assert result.num_jammed > result.num_jammed_active > 0
            assert result.backlog_series() == [backlog for *_, backlog in slots]
            assert result.throughput_series() == _recorded_throughput(slots)

    @pytest.mark.parametrize("engine", ["serial", "vector"])
    def test_summary_max_backlog_is_the_backlog_series_peak(self, engine):
        # The backlog experiment (E3) reads its peak from the summary row.
        jammer = BernoulliJamming(0.2, only_active=False)
        for result in _recorded_runs(engine, LowSensingBackoff(), jammer):
            series = result.backlog_series()
            assert result.summary().max_backlog == max(series) > 0
            assert series[-1] == result.backlog

    def test_pickled_results_hold_no_numpy(self):
        """Run artifacts stay numpy-free, so their hashes do not depend on
        the installed numpy version."""
        plan = build_plan(get_scenario("onoff-jamming"), "smoke")
        for backend in (SerialBackend(), VectorBackend()):
            results = plan.run(backend).results
            assert all(result.collector.jammed_active_slots for result in results)
            for result in results:
                assert b"numpy" not in pickle.dumps(result, pickle.HIGHEST_PROTOCOL)
