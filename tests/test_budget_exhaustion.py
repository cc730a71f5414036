"""Budget-exhaustion edge cases across every budgeted jammer.

The paper's bounds are parameterised by the *realised* number of jammed
slots, so `_BudgetedJammer` bookkeeping must be exact: a zero budget means
zero jams, an exhausted budget silences the strategy mid-attack, and a
schedule phase boundary resets to the next phase's own budget (budgets are
per phase, never shared).
"""

from __future__ import annotations

from random import Random

import pytest

from repro.adversary.base import SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.adversary.scheduled import ScheduledJamming
from repro.adversary.arrivals import BatchArrivals
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.scenarios.schedule import Phase
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


def view_at(slot: int, active: tuple = (0,), contention: float = 1.0) -> SystemView:
    return SystemView(
        slot=slot, backlog=len(active), arrivals_so_far=len(active), contention=contention
    )


def drive(jammer, slots: int, rng: Random) -> list[bool]:
    """Per-slot adaptive + reactive decisions with one sender present."""
    decisions = []
    for slot in range(slots):
        view = view_at(slot)
        jammed = jammer.jam(view, rng)
        if not jammed and jammer.reactive:
            jammed = jammer.reactive_jam(view, (0,), rng)
        decisions.append(jammed)
    return decisions


#: Every budgeted strategy, built with the given budget and parameters
#: that would jam *every* slot of `drive` if the budget were unlimited.
ALWAYS_JAMMING = [
    pytest.param(lambda b: BernoulliJamming(1.0, budget=b, only_active=False), id="bernoulli"),
    pytest.param(lambda b: BernoulliJamming(1.0, budget=b, only_active=True), id="bernoulli-active"),
    pytest.param(lambda b: PeriodicJamming(period=1, budget=b), id="periodic"),
    pytest.param(lambda b: BurstJamming(start=0, length=10**6, budget=b), id="burst"),
    pytest.param(
        lambda b: AdaptiveContentionJammer(budget=b, target_regime="any"),
        id="adaptive-contention",
    ),
    pytest.param(
        lambda b: ReactiveTargetedJammer(budget=b, target_index=0),
        id="reactive-targeted",
    ),
    pytest.param(lambda b: ReactiveSuccessJammer(budget=b), id="reactive-success"),
]


class TestZeroBudget:
    @pytest.mark.parametrize("build", ALWAYS_JAMMING)
    def test_zero_budget_never_jams(self, build, rng):
        jammer = build(0)
        assert drive(jammer, 50, rng) == [False] * 50
        assert jammer.jams_used() == 0

    def test_budgeted_random_zero_budget(self, rng):
        jammer = BudgetedRandomJamming(budget=0, horizon=100)
        assert drive(jammer, 100, rng) == [False] * 100
        assert jammer.jams_used() == 0


class TestExhaustionMidAttack:
    @pytest.mark.parametrize("build", ALWAYS_JAMMING)
    def test_budget_caps_realised_jams_exactly(self, build, rng):
        jammer = build(7)
        decisions = drive(jammer, 200, rng)
        assert decisions[:7] == [True] * 7
        assert not any(decisions[7:])
        assert jammer.jams_used() == 7

    def test_budget_hit_mid_burst(self, rng):
        # The burst wants slots 5..14, the budget dies after 4 jams.
        jammer = BurstJamming(start=5, length=10, budget=4)
        decisions = [jammer.jam(view_at(slot), rng) for slot in range(20)]
        assert [slot for slot, jammed in enumerate(decisions) if jammed] == [5, 6, 7, 8]
        assert jammer.jams_used() == 4

    def test_budget_spans_burst_repetitions(self, rng):
        # Repeating 3-slot bursts every 10 slots; budget 5 dies inside the
        # second repetition.
        jammer = BurstJamming(start=0, length=3, period=10, budget=5)
        decisions = [jammer.jam(view_at(slot), rng) for slot in range(30)]
        assert [slot for slot, jammed in enumerate(decisions) if jammed] == [
            0, 1, 2, 10, 11,
        ]

    def test_budgeted_random_stops_at_budget(self, rng):
        jammer = BudgetedRandomJamming(budget=3, horizon=10)
        decisions = [jammer.jam(view_at(slot), rng) for slot in range(10)]
        assert sum(decisions) == jammer.jams_used() <= 3


class TestScheduleBoundaryInteractions:
    def test_budget_exhausts_before_its_phase_ends(self, rng):
        jamming = ScheduledJamming(
            Phase(BernoulliJamming(1.0, budget=3, only_active=False), 5),
            Phase(BernoulliJamming(1.0, budget=2, only_active=False)),
        )
        decisions = [jamming.jam(view_at(slot), rng) for slot in range(10)]
        # Phase 1: budget 3 dies at slot 3; phase 2 starts fresh with its
        # own budget of 2, then everything is silent.
        assert decisions == [True, True, True, False, False, True, True, False, False, False]
        assert jamming.jams_used() == 5

    def test_budget_exhausts_exactly_at_the_phase_boundary(self, rng):
        jamming = ScheduledJamming(
            Phase(PeriodicJamming(period=1, budget=4), 4),
            Phase(PeriodicJamming(period=1, budget=4), 4),
        )
        decisions = [jamming.jam(view_at(slot), rng) for slot in range(10)]
        assert decisions == [True] * 8 + [False, False]
        assert jamming.jams_used() == 8

    def test_unspent_budget_does_not_carry_across_phases(self, rng):
        jamming = ScheduledJamming(
            Phase(BernoulliJamming(1.0, budget=100, only_active=False), 3),
            Phase(BernoulliJamming(1.0, budget=2, only_active=False)),
        )
        decisions = [jamming.jam(view_at(slot), rng) for slot in range(8)]
        # 97 unspent jams from phase 1 do not leak into phase 2.
        assert decisions == [True, True, True, True, True, False, False, False]
        assert jamming.jams_used() == 5


class TestEngineAccounting:
    def test_realised_jams_match_budget_in_a_full_run(self):
        jammer = BernoulliJamming(1.0, budget=9, only_active=True)
        config = SimulationConfig(
            protocol=BinaryExponentialBackoff(),
            adversary=CompositeAdversary(BatchArrivals(20), jammer),
            seed=3,
            max_slots=100_000,
        )
        result = Simulator(config).run()
        assert result.drained
        assert jammer.jams_used() == 9
        assert result.collector.num_jammed == 9
