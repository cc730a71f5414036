"""Tests for packet-arrival processes."""

from random import Random

import pytest

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.adversary.base import SystemView
from repro.queueing.model import QueueingConstraint


def view_at(slot: int) -> SystemView:
    return SystemView(slot=slot, backlog=0, arrivals_so_far=0)


def collect(process, horizon: int, seed: int = 0) -> list[int]:
    rng = Random(seed)
    return [process.arrivals(view_at(slot), rng) for slot in range(horizon)]


class TestNoArrivals:
    def test_never_arrives(self):
        assert sum(collect(NoArrivals(), 100)) == 0

    def test_always_exhausted(self):
        assert NoArrivals().exhausted(0)


class TestBatchArrivals:
    def test_all_packets_in_one_slot(self):
        counts = collect(BatchArrivals(25), 10)
        assert counts[0] == 25
        assert sum(counts[1:]) == 0

    def test_configurable_slot(self):
        counts = collect(BatchArrivals(5, slot=3), 10)
        assert counts[3] == 5 and sum(counts) == 5

    def test_exhaustion(self):
        process = BatchArrivals(5, slot=3)
        assert not process.exhausted(3)
        assert process.exhausted(4)

    def test_total_planned(self):
        assert BatchArrivals(7).total_planned() == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchArrivals(-1)
        with pytest.raises(ValueError):
            BatchArrivals(1, slot=-1)


class TestPoissonArrivals:
    def test_mean_matches_rate(self):
        counts = collect(PoissonArrivals(rate=0.5), 20_000, seed=3)
        assert sum(counts) / len(counts) == pytest.approx(0.5, rel=0.1)

    def test_horizon_stops_arrivals(self):
        counts = collect(PoissonArrivals(rate=2.0, horizon=100), 200, seed=1)
        assert sum(counts[100:]) == 0
        assert sum(counts[:100]) > 0

    def test_zero_rate(self):
        assert sum(collect(PoissonArrivals(rate=0.0), 100)) == 0

    def test_exhaustion_requires_horizon(self):
        assert not PoissonArrivals(rate=1.0).exhausted(10**6)
        assert PoissonArrivals(rate=1.0, horizon=10).exhausted(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(rate=-1.0)


class TestPeriodicBurstArrivals:
    def test_burst_pattern(self):
        counts = collect(PeriodicBurstArrivals(burst_size=4, period=10), 35)
        assert counts[0] == counts[10] == counts[20] == counts[30] == 4
        assert sum(counts) == 16

    def test_start_offset_and_burst_limit(self):
        process = PeriodicBurstArrivals(burst_size=2, period=5, start=3, num_bursts=2)
        counts = collect(process, 30)
        assert counts[3] == 2 and counts[8] == 2
        assert sum(counts) == 4
        assert process.exhausted(9)
        assert not process.exhausted(8)

    def test_total_planned(self):
        assert PeriodicBurstArrivals(3, 10, num_bursts=4).total_planned() == 12
        assert PeriodicBurstArrivals(3, 10).total_planned() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicBurstArrivals(burst_size=1, period=0)


class TestTraceArrivals:
    def test_replays_counts(self):
        process = TraceArrivals([1, 0, 3, 0, 2])
        assert collect(process, 8) == [1, 0, 3, 0, 2, 0, 0, 0]

    def test_exhaustion_and_total(self):
        process = TraceArrivals([1, 2])
        assert process.total_planned() == 3
        assert process.exhausted(2)
        assert not process.exhausted(1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            TraceArrivals([1, -1])


class TestAdversarialQueueingArrivals:
    @pytest.mark.parametrize("placement", ["front", "uniform", "random"])
    def test_generated_stream_is_admissible(self, placement):
        rate, granularity, horizon = 0.3, 50, 600
        process = AdversarialQueueingArrivals(
            rate=rate, granularity=granularity, placement=placement, horizon=horizon
        )
        counts = collect(process, horizon, seed=9)
        constraint = QueueingConstraint(rate=rate, granularity=granularity, sliding=False)
        assert constraint.is_admissible(counts, [False] * len(counts))

    def test_front_placement_puts_budget_in_first_slot(self):
        process = AdversarialQueueingArrivals(rate=0.2, granularity=100, placement="front")
        counts = collect(process, 200)
        assert counts[0] == 20 and counts[100] == 20
        assert sum(counts[1:100]) == 0

    def test_uniform_placement_spreads_budget(self):
        process = AdversarialQueueingArrivals(rate=0.5, granularity=100, placement="uniform")
        counts = collect(process, 100)
        assert sum(counts) == 50
        assert max(counts) <= 2

    def test_random_placement_uses_full_budget(self):
        process = AdversarialQueueingArrivals(rate=0.4, granularity=50, placement="random")
        counts = collect(process, 50, seed=3)
        assert sum(counts) == 20

    def test_jam_budget_fraction_reduces_arrivals(self):
        process = AdversarialQueueingArrivals(
            rate=0.4, granularity=100, jam_budget_fraction=0.5
        )
        assert process.arrivals_per_window == 20

    def test_horizon_and_exhaustion(self):
        process = AdversarialQueueingArrivals(rate=0.2, granularity=10, horizon=30)
        counts = collect(process, 60)
        assert sum(counts[30:]) == 0
        assert process.exhausted(30)

    def test_total_planned_upper_bound(self):
        process = AdversarialQueueingArrivals(rate=0.2, granularity=10, horizon=35)
        counts = collect(process, 35)
        assert sum(counts) <= process.total_planned()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdversarialQueueingArrivals(rate=1.0, granularity=10)
        with pytest.raises(ValueError):
            AdversarialQueueingArrivals(rate=0.5, granularity=0)
        with pytest.raises(ValueError):
            AdversarialQueueingArrivals(rate=0.5, granularity=10, placement="weird")
