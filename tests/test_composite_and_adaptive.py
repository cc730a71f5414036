"""Tests for the composite adversary and the coupled adaptive adversary."""

from random import Random

import pytest

from repro.adversary.adaptive import BacklogCouplingAdversary
from repro.adversary.arrivals import BatchArrivals, NoArrivals
from repro.adversary.base import Adversary, SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    NoJamming,
    PeriodicJamming,
    ReactiveTargetedJammer,
)
from repro.core.low_sensing import LowSensingBackoff
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def view(slot: int = 0, active: int = 0) -> SystemView:
    return SystemView(slot=slot, backlog=active, arrivals_so_far=active)


class SilentAdversary(Adversary):
    """Only the two abstract hooks: no arrivals and no jamming, ever."""

    def arrivals(self, view, rng):
        return 0

    def jam(self, view, rng):
        return False


def run_engine(adversary, max_slots=25):
    config = SimulationConfig(
        protocol=LowSensingBackoff(), adversary=adversary, seed=0, max_slots=max_slots
    )
    return Simulator(config).run()


class TestAdversaryDefaults:
    def test_arrivals_never_exhaust_by_default(self):
        assert not SilentAdversary().arrivals_exhausted(10**9)

    def test_engine_runs_an_unexhausted_adversary_to_max_slots(self):
        result = run_engine(SilentAdversary())
        assert result.num_slots == 25
        assert result.drained is False

    def test_drained_is_a_bool(self):
        result = run_engine(CompositeAdversary(BatchArrivals(3)), max_slots=10_000)
        assert result.drained is True


class TestCompositeAdversary:
    def test_defaults_to_no_arrivals_no_jamming(self):
        adversary = CompositeAdversary()
        rng = Random(0)
        assert adversary.arrivals(view(), rng) == 0
        assert not adversary.jam(view(), rng)
        assert not adversary.reactive

    def test_forwards_arrivals(self):
        adversary = CompositeAdversary(BatchArrivals(10))
        assert adversary.arrivals(view(0), Random(0)) == 10
        assert adversary.arrivals(view(1), Random(0)) == 0

    def test_forwards_jamming(self):
        adversary = CompositeAdversary(NoArrivals(), PeriodicJamming(period=2))
        rng = Random(0)
        assert adversary.jam(view(0, active=1), rng)
        assert not adversary.jam(view(1, active=1), rng)

    def test_reactive_flag_follows_jammer(self):
        adversary = CompositeAdversary(
            BatchArrivals(1), ReactiveTargetedJammer(budget=1)
        )
        assert adversary.reactive
        assert not CompositeAdversary(BatchArrivals(1), NoJamming()).reactive

    def test_needs_contention_follows_jammer(self):
        adversary = CompositeAdversary(
            BatchArrivals(1), AdaptiveContentionJammer(budget=1)
        )
        assert adversary.needs_contention

    def test_arrivals_exhausted_delegates(self):
        adversary = CompositeAdversary(BatchArrivals(5, slot=0))
        assert not adversary.arrivals_exhausted(0)
        assert adversary.arrivals_exhausted(1)

    def test_describe_mentions_both_parts(self):
        description = CompositeAdversary(BatchArrivals(1), PeriodicJamming(3)).describe()
        assert description["arrivals"]["type"] == "BatchArrivals"
        assert description["jammer"]["type"] == "PeriodicJamming"


class TestBacklogCouplingAdversary:
    def test_injects_up_to_target_backlog(self):
        adversary = BacklogCouplingAdversary(target_backlog=3, total_packets=10)
        rng = Random(0)
        assert adversary.arrivals(view(active=0), rng) == 3
        assert adversary.arrivals(view(active=3), rng) == 0
        assert adversary.arrivals(view(active=1), rng) == 2

    def test_stops_after_total_packets(self):
        adversary = BacklogCouplingAdversary(target_backlog=5, total_packets=6)
        rng = Random(0)
        first = adversary.arrivals(view(active=0), rng)
        second = adversary.arrivals(view(active=0), rng)
        assert first == 5 and second == 1
        assert adversary.arrivals(view(active=0), rng) == 0
        assert adversary.arrivals_exhausted(0)

    def test_jams_only_when_one_packet_remains(self):
        adversary = BacklogCouplingAdversary(
            target_backlog=1, total_packets=1, jam_budget=2
        )
        rng = Random(0)
        assert not adversary.jam(view(active=3), rng)
        assert adversary.jam(view(active=1), rng)
        assert adversary.jam(view(active=1), rng)
        assert not adversary.jam(view(active=1), rng)  # budget exhausted

    def test_validation(self):
        with pytest.raises(ValueError):
            BacklogCouplingAdversary(target_backlog=0, total_packets=1)
        with pytest.raises(ValueError):
            BacklogCouplingAdversary(target_backlog=1, total_packets=-1)
        with pytest.raises(ValueError):
            BacklogCouplingAdversary(target_backlog=1, total_packets=1, jam_budget=-1)
