"""Tests for the schedule DSL and the scheduled adversary adapters."""

from __future__ import annotations

from random import Random

import pytest

from repro.adversary.arrivals import (
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.base import SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BurstJamming,
    Jammer,
    NoJamming,
    PeriodicJamming,
    ReactiveTargetedJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.channel.feedback import SlotOutcome
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.scenarios.schedule import Phase, Schedule
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from tests.conftest import counts_before


def view_at(slot: int, active: tuple = ()) -> SystemView:
    return SystemView(slot=slot, backlog=len(active), arrivals_so_far=len(active))


class TestPhase:
    def test_rejects_non_positive_duration(self):
        with pytest.raises(ValueError):
            Phase(NoArrivals(), 0)
        with pytest.raises(ValueError):
            Phase(NoArrivals(), -5)

    def test_rejects_non_integer_duration(self):
        with pytest.raises(ValueError):
            Phase(NoArrivals(), 2.5)  # type: ignore[arg-type]

    def test_open_ended_duration_allowed(self):
        assert Phase(NoArrivals()).duration is None

    def test_describe_includes_component(self):
        description = Phase(BatchArrivals(3), 10).describe()
        assert description["duration"] == 10
        assert description["component"]["type"] == "BatchArrivals"


class TestSchedule:
    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError):
            Schedule([])

    def test_open_ended_only_last(self):
        with pytest.raises(ValueError):
            Schedule([Phase(NoArrivals()), Phase(NoArrivals(), 5)])

    def test_phase_at_walks_boundaries(self):
        schedule = Schedule([Phase(NoArrivals(), 3), Phase(NoArrivals(), 2), Phase(NoArrivals())])
        assert schedule.phase_at(0) == (0, 0)
        assert schedule.phase_at(2) == (0, 2)
        assert schedule.phase_at(3) == (1, 0)
        assert schedule.phase_at(4) == (1, 1)
        assert schedule.phase_at(5) == (2, 0)
        assert schedule.phase_at(1000) == (2, 995)

    def test_phase_at_past_finite_end_is_none(self):
        schedule = Schedule([Phase(NoArrivals(), 3), Phase(NoArrivals(), 2)])
        assert schedule.total_duration == 5
        assert schedule.phase_at(4) == (1, 1)
        assert schedule.phase_at(5) is None
        assert schedule.phase_at(50) is None

    def test_phase_at_rejects_negative_slot(self):
        with pytest.raises(ValueError):
            Schedule([Phase(NoArrivals())]).phase_at(-1)

    def test_segments_split_along_phases(self):
        schedule = Schedule(
            [Phase(NoArrivals(), 10), Phase(NoArrivals(), 5), Phase(NoArrivals())]
        )
        assert list(schedule.segments(0, 20)) == [
            (0, 0, 0, 10),
            (1, 0, 10, 5),
            (2, 0, 15, 5),
        ]
        # A range starting mid-phase uses phase-local starts.
        assert list(schedule.segments(8, 4)) == [(0, 8, 0, 2), (1, 0, 2, 2)]

    def test_segments_truncate_past_finite_end(self):
        schedule = Schedule([Phase(NoArrivals(), 4)])
        assert list(schedule.segments(2, 10)) == [(0, 2, 0, 2)]
        assert list(schedule.segments(6, 10)) == []


class TestScheduledArrivals:
    def test_requires_arrival_components(self):
        with pytest.raises(TypeError):
            ScheduledArrivals(Phase(NoJamming(), 5))

    def test_phases_fire_on_their_local_clock(self, rng):
        arrivals = ScheduledArrivals(
            Phase(BatchArrivals(10), 5),
            Phase(BatchArrivals(20, slot=2), 10),
            Phase(NoArrivals()),
        )
        counts = [arrivals.arrivals(view_at(slot), rng) for slot in range(20)]
        assert counts[0] == 10
        assert counts[7] == 20  # slot 2 of the second phase, which starts at 5
        assert sum(counts) == 30

    def test_burst_cadence_rebases_to_phase_start(self, rng):
        arrivals = ScheduledArrivals(
            Phase(NoArrivals(), 100),
            Phase(PeriodicBurstArrivals(burst_size=3, period=10), 30),
            Phase(NoArrivals()),
        )
        firing = [
            slot for slot in range(140) if arrivals.arrivals(view_at(slot), rng) > 0
        ]
        assert firing == [100, 110, 120]

    def test_finite_schedule_truncates_open_processes(self, rng):
        # The burst process itself is endless; the phase cuts it off.
        arrivals = ScheduledArrivals(
            Phase(PeriodicBurstArrivals(burst_size=2, period=5), 12),
            Phase(NoArrivals()),
        )
        assert not arrivals.exhausted(7)
        assert arrivals.exhausted(12)
        assert [arrivals.arrivals(view_at(slot), rng) for slot in range(20)] == [
            2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        ]

    def test_exhausted_sees_future_phases(self):
        arrivals = ScheduledArrivals(
            Phase(BatchArrivals(5), 10),
            Phase(BatchArrivals(7), 10),
            Phase(NoArrivals()),
        )
        assert not arrivals.exhausted(0)
        assert not arrivals.exhausted(5)  # batch in phase 2 still pending
        assert arrivals.exhausted(11)
        assert arrivals.total_planned() == 12

    def test_total_planned_none_when_any_phase_unbounded(self):
        arrivals = ScheduledArrivals(
            Phase(PoissonArrivals(0.1), 10), Phase(NoArrivals())
        )
        assert arrivals.total_planned() is None

    def test_phase_component_sees_counts_on_its_own_clock(self, rng):
        seen = []

        class Recording(NoArrivals):
            def arrivals(self, view, rng):
                seen.append(
                    (
                        view.slot,
                        view.backlog,
                        view.contention,
                        view.arrivals_so_far,
                        view.departures_so_far,
                        view.jammed_so_far,
                        view.active_slots_so_far,
                        view.last_outcome,
                    )
                )
                return 0

        arrivals = ScheduledArrivals(Phase(NoArrivals(), 5), Phase(Recording()))
        view = SystemView(7, 3, 1.5, 9, 6, 2, 7, SlotOutcome.COLLISION)
        arrivals.arrivals(view, rng)
        assert seen == [(2, 3, 1.5, 9, 6, 2, 7, SlotOutcome.COLLISION)]

    def test_describe_nests_phase_descriptions(self):
        description = ScheduledArrivals(Phase(BatchArrivals(4), 6)).describe()
        assert description["type"] == "ScheduledArrivals"
        phases = description["schedule"]["phases"]
        assert phases[0]["component"]["type"] == "BatchArrivals"
        assert phases[0]["duration"] == 6

    def test_accepts_a_prebuilt_schedule(self, rng):
        schedule = Schedule([Phase(BatchArrivals(2), 4), Phase(NoArrivals())])
        arrivals = ScheduledArrivals(schedule)
        assert arrivals.arrivals(view_at(0), rng) == 2


class TestScheduledJamming:
    def test_requires_jammer_components(self):
        with pytest.raises(TypeError):
            ScheduledJamming(Phase(BatchArrivals(1), 5))

    def test_phase_transitions_and_local_clock(self, rng):
        jamming = ScheduledJamming(
            Phase(PeriodicJamming(period=2), 6),
            Phase(NoJamming(), 4),
            Phase(BurstJamming(start=0, length=2)),
        )
        decisions = [jamming.jam(view_at(slot), rng) for slot in range(15)]
        assert decisions == [
            True, False, True, False, True, False,  # periodic phase
            False, False, False, False,             # silent phase
            True, True, False, False, False,        # burst at the phase start
        ]
        assert jamming.jams_used() == 5

    def test_past_finite_schedule_never_jams(self, rng):
        jamming = ScheduledJamming(Phase(PeriodicJamming(period=1), 3))
        assert [jamming.jam(view_at(slot), rng) for slot in range(6)] == [
            True, True, True, False, False, False,
        ]

    def test_reactive_phase_marks_adapter_reactive(self, rng):
        jamming = ScheduledJamming(
            Phase(NoJamming(), 5),
            Phase(ReactiveTargetedJammer(budget=None, target_index=0)),
        )
        assert jamming.reactive
        view = view_at(2, active=(0,))
        assert not jamming.reactive_jam(view, (0,), rng)  # non-reactive phase
        view = view_at(7, active=(0,))
        assert jamming.reactive_jam(view, (0,), rng)

    def test_contention_flag_and_backlog_gate(self, rng):
        assert not ScheduledJamming(Phase(PeriodicJamming(2))).needs_contention
        assert ScheduledJamming(
            Phase(PeriodicJamming(2), 3), Phase(AdaptiveContentionJammer(budget=1))
        ).needs_contention
        gated = ScheduledJamming(
            Phase(NoJamming(), 2), Phase(BernoulliJamming(1.0, only_active=True))
        )
        assert not gated.reactive and not gated.needs_contention
        # The gate reads the backlog through the phase's shifted view.
        assert not gated.jam(view_at(4), rng)
        assert gated.jam(view_at(4, active=(0,)), rng)


class TestEngineIntegration:
    def test_single_phase_schedule_is_bit_identical_to_bare_process(self):
        def run(adversary):
            config = SimulationConfig(
                protocol=BinaryExponentialBackoff(),
                adversary=adversary,
                seed=99,
                max_slots=20_000,
            )
            return Simulator(config).run()

        bare = run(CompositeAdversary(BatchArrivals(30), PeriodicJamming(7)))
        scheduled = run(
            CompositeAdversary(
                ScheduledArrivals(Phase(BatchArrivals(30))),
                ScheduledJamming(Phase(PeriodicJamming(7))),
            )
        )
        assert bare.backlog_series() == scheduled.backlog_series()
        assert [(p.packet_id, p.departure_slot, p.sends) for p in bare.packets] == [
            (p.packet_id, p.departure_slot, p.sends) for p in scheduled.packets
        ]

    def test_phase_boundary_changes_behaviour_mid_run(self):
        # Jam every slot for 50 slots, then stop: the jammed prefix must
        # show zero successes and the suffix must drain the batch.
        config = SimulationConfig(
            protocol=BinaryExponentialBackoff(),
            adversary=CompositeAdversary(
                BatchArrivals(10),
                ScheduledJamming(
                    Phase(BernoulliJamming(1.0, only_active=False), 50),
                    Phase(NoJamming()),
                ),
            ),
            seed=5,
            max_slots=50_000,
        )
        result = Simulator(config).run()
        assert result.drained
        successes = result.slot_counts().successes
        assert successes[49] == 0
        assert result.collector.num_jammed == 50

    def test_shifted_view_carries_engine_counts(self):
        class Recording(Jammer):
            def __init__(self):
                self.seen = []

            def jam(self, view, rng):
                self.seen.append(
                    (view.slot, view.backlog, view.arrivals_so_far, view.departures_so_far)
                )
                return False

        recording = Recording()
        adversary = CompositeAdversary(
            PeriodicBurstArrivals(burst_size=3, period=10, num_bursts=4),
            ScheduledJamming(Phase(NoJamming(), 7), Phase(recording)),
        )
        config = SimulationConfig(
            protocol=BinaryExponentialBackoff(),
            adversary=adversary,
            seed=1,
            max_slots=2000,
        )
        result = Simulator(config).run()
        assert len(recording.seen) == result.num_slots - 7
        for local_slot, backlog, arrivals, departures in recording.seen:
            slot = local_slot + 7
            assert (backlog, arrivals, departures) == counts_before(result, slot), slot
