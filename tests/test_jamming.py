"""Tests for jamming strategies."""

from random import Random

import pytest

from repro.adversary.base import SystemView
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)


def view(slot: int = 0, active: int = 1, contention: float = 1.0) -> SystemView:
    return SystemView(
        slot=slot,
        backlog=active,
        arrivals_so_far=active,
        contention=contention,
    )


class TestNoJamming:
    def test_never_jams(self):
        jammer = NoJamming()
        rng = Random(0)
        assert not any(jammer.jam(view(slot), rng) for slot in range(100))
        assert jammer.jams_used() == 0


class TestBernoulliJamming:
    def test_jam_frequency_matches_probability(self):
        jammer = BernoulliJamming(probability=0.25)
        rng = Random(1)
        jams = sum(1 for slot in range(20_000) if jammer.jam(view(slot), rng))
        assert jams == pytest.approx(5000, rel=0.1)
        assert jammer.jams_used() == jams

    def test_budget_is_respected(self):
        jammer = BernoulliJamming(probability=1.0, budget=5)
        rng = Random(2)
        jams = sum(1 for slot in range(100) if jammer.jam(view(slot), rng))
        assert jams == 5

    def test_inactive_slots_spared_by_default(self):
        jammer = BernoulliJamming(probability=1.0)
        assert not jammer.jam(view(active=0), Random(0))

    def test_only_active_false_jams_inactive(self):
        jammer = BernoulliJamming(probability=1.0, only_active=False)
        assert jammer.jam(view(active=0), Random(0))

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliJamming(probability=1.5)
        with pytest.raises(ValueError):
            BernoulliJamming(probability=0.5, budget=-1)


class TestPeriodicJamming:
    def test_period_pattern(self):
        jammer = PeriodicJamming(period=5, offset=2)
        rng = Random(0)
        jammed = [slot for slot in range(20) if jammer.jam(view(slot), rng)]
        assert jammed == [2, 7, 12, 17]

    def test_budget(self):
        jammer = PeriodicJamming(period=1, budget=3)
        rng = Random(0)
        jams = sum(1 for slot in range(10) if jammer.jam(view(slot), rng))
        assert jams == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicJamming(period=0)


class TestBurstJamming:
    def test_single_burst(self):
        jammer = BurstJamming(start=3, length=4)
        rng = Random(0)
        jammed = [slot for slot in range(12) if jammer.jam(view(slot), rng)]
        assert jammed == [3, 4, 5, 6]

    def test_repeating_burst(self):
        jammer = BurstJamming(start=0, length=2, period=5)
        rng = Random(0)
        jammed = [slot for slot in range(12) if jammer.jam(view(slot), rng)]
        assert jammed == [0, 1, 5, 6, 10, 11]

    def test_validation(self):
        with pytest.raises(ValueError):
            BurstJamming(start=0, length=10, period=5)


class TestBudgetedRandomJamming:
    def test_spends_roughly_the_budget(self):
        jammer = BudgetedRandomJamming(budget=100, horizon=1000)
        rng = Random(4)
        jams = sum(1 for slot in range(1000) if jammer.jam(view(slot), rng))
        assert 50 <= jams <= 100
        assert jammer.jams_used() == jams

    def test_never_exceeds_budget(self):
        jammer = BudgetedRandomJamming(budget=10, horizon=20)
        rng = Random(5)
        jams = sum(1 for slot in range(20) if jammer.jam(view(slot), rng))
        assert jams <= 10

    def test_no_jamming_after_horizon(self):
        jammer = BudgetedRandomJamming(budget=10, horizon=10)
        assert not jammer.jam(view(15), Random(0))


class TestAdaptiveContentionJammer:
    def test_targets_good_contention_only(self):
        jammer = AdaptiveContentionJammer(budget=None, target_regime="good")
        rng = Random(0)
        assert jammer.jam(view(contention=1.0), rng)
        assert not jammer.jam(view(contention=0.001), rng)
        assert not jammer.jam(view(contention=100.0), rng)

    def test_targets_low_contention(self):
        jammer = AdaptiveContentionJammer(budget=None, target_regime="low")
        rng = Random(0)
        assert jammer.jam(view(contention=0.001), rng)
        assert not jammer.jam(view(contention=1.0), rng)

    def test_any_regime_with_budget(self):
        jammer = AdaptiveContentionJammer(budget=2, target_regime="any")
        rng = Random(0)
        jams = sum(1 for _ in range(10) if jammer.jam(view(), rng))
        assert jams == 2

    def test_never_jams_empty_system(self):
        jammer = AdaptiveContentionJammer(budget=None, target_regime="any")
        assert not jammer.jam(view(active=0), Random(0))

    def test_declares_contention_dependency(self):
        assert AdaptiveContentionJammer(budget=1).needs_contention

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveContentionJammer(budget=1, target_regime="bogus")


class TestReactiveTargetedJammer:
    def test_jams_only_when_target_sends(self):
        jammer = ReactiveTargetedJammer(budget=None, target_index=0)
        rng = Random(0)
        assert jammer.reactive
        assert not jammer.jam(view(), rng)
        assert jammer.reactive_jam(view(active=3), senders=(0, 2), rng=rng)
        assert not jammer.reactive_jam(view(active=3), senders=(1, 2), rng=rng)

    def test_budget_limits_persecution(self):
        jammer = ReactiveTargetedJammer(budget=2, target_index=0)
        rng = Random(0)
        jams = sum(
            1 for _ in range(10) if jammer.reactive_jam(view(active=1), (0,), rng)
        )
        assert jams == 2

    def test_no_jam_before_target_exists(self):
        jammer = ReactiveTargetedJammer(budget=None, target_index=5)
        assert not jammer.reactive_jam(view(active=2), senders=(0,), rng=Random(0))


class TestReactiveSuccessJammer:
    def test_jams_would_be_successes_only(self):
        jammer = ReactiveSuccessJammer(budget=None)
        rng = Random(0)
        assert jammer.reactive_jam(view(), senders=(3,), rng=rng)
        assert not jammer.reactive_jam(view(), senders=(), rng=rng)
        assert not jammer.reactive_jam(view(), senders=(1, 2), rng=rng)

    def test_budget(self):
        jammer = ReactiveSuccessJammer(budget=1)
        rng = Random(0)
        assert jammer.reactive_jam(view(), senders=(1,), rng=rng)
        assert not jammer.reactive_jam(view(), senders=(2,), rng=rng)
