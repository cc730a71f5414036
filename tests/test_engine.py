"""Integration tests for the simulation engine."""

from repro.adversary.adaptive import BacklogCouplingAdversary
from repro.adversary.arrivals import BatchArrivals, PoissonArrivals, TraceArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    BernoulliJamming,
    BurstJamming,
    PeriodicJamming,
    ReactiveTargetedJammer,
)
from repro.channel.actions import ActionKind
from repro.channel.feedback import SlotOutcome
from repro.core.low_sensing import LowSensingBackoff
from repro.protocols.base import BackoffProtocol, PacketState
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

from tests.conftest import run_batch


class TestBasicExecution:
    def test_single_packet_eventually_succeeds(self):
        result = run_batch(LowSensingBackoff(), 1, seed=3)
        assert result.num_delivered == 1
        assert result.drained
        assert result.packets[0].departed

    def test_all_packets_delivered_on_batch(self):
        result = run_batch(LowSensingBackoff(), 60, seed=5)
        assert result.num_arrivals == 60
        assert result.num_delivered == 60
        assert result.backlog == 0
        assert result.drained

    def test_arrivals_equal_departures_plus_backlog_when_truncated(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(BatchArrivals(100)),
            seed=1,
            max_slots=50,  # far too short to drain
        )
        result = Simulator(config).run()
        assert result.num_slots == 50
        assert result.num_arrivals == result.num_delivered + result.backlog
        assert not result.drained

    def test_deterministic_given_seed(self):
        a = run_batch(LowSensingBackoff(), 40, seed=11)
        b = run_batch(LowSensingBackoff(), 40, seed=11)
        assert a.num_slots == b.num_slots
        assert a.num_delivered == b.num_delivered
        assert [p.channel_accesses for p in a.packets] == [
            p.channel_accesses for p in b.packets
        ]

    def test_different_seeds_differ(self):
        a = run_batch(LowSensingBackoff(), 40, seed=11)
        b = run_batch(LowSensingBackoff(), 40, seed=12)
        assert a.num_slots != b.num_slots or [p.channel_accesses for p in a.packets] != [
            p.channel_accesses for p in b.packets
        ]

    def test_packet_ids_are_assigned_in_arrival_order(self):
        result = run_batch(LowSensingBackoff(), 10, seed=2)
        assert [p.packet_id for p in result.packets] == list(range(10))

    def test_empty_workload_finishes_immediately(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(),
            seed=0,
            max_slots=1000,
        )
        result = Simulator(config).run()
        assert result.num_slots == 0
        assert result.drained


class TestEnergyAccounting:
    def test_every_departed_packet_sent_at_least_once(self):
        result = run_batch(LowSensingBackoff(), 30, seed=8)
        assert all(p.sends >= 1 for p in result.packets)

    def test_beb_never_listens(self):
        result = run_batch(BinaryExponentialBackoff(), 30, seed=8)
        assert all(p.listens == 0 for p in result.packets)

    def test_full_sensing_accesses_every_active_slot(self):
        result = run_batch(FullSensingMultiplicativeWeights(), 20, seed=8)
        for packet in result.packets:
            assert packet.departure_slot is not None
            lifetime = packet.departure_slot - packet.arrival_slot + 1
            assert packet.channel_accesses == lifetime

    def test_collector_access_totals_match_packets(self):
        result = run_batch(LowSensingBackoff(), 30, seed=8)
        assert result.collector.total_sends == sum(p.sends for p in result.packets)
        assert result.collector.total_listens == sum(p.listens for p in result.packets)


class TestTraceCollection:
    """A window-1 dynamics trajectory records every slot on its own."""

    def test_trace_winner_matches_success(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(BatchArrivals(20)),
            seed=4,
            dynamics_window=1,
        )
        result = Simulator(config).run()
        trajectory = result.dynamics
        assert trajectory.window == 1 and trajectory.num_windows == result.num_slots
        departures = [0] * result.num_slots
        for packet in result.packets:
            departures[packet.departure_slot] += 1
        sends = trajectory.cumulative_sends.tolist()
        backlog_before = 0
        for slot, (arrivals, successes, backlog) in enumerate(
            zip(
                trajectory.arrivals.tolist(),
                trajectory.successes.tolist(),
                trajectory.backlog.tolist(),
            )
        ):
            backlog_before += arrivals
            # A success slot has one sender, which departs in it; no other
            # slot sees a departure.
            assert departures[slot] == successes
            if successes:
                assert sends[slot] - (sends[slot - 1] if slot else 0) == 1
            assert backlog == backlog_before - successes
            backlog_before = backlog
        assert sum(trajectory.successes.tolist()) == result.num_delivered == 20


class RecordingState(PacketState):
    """LOW-SENSING state that keeps every action it takes and report it observes."""

    def __init__(self, inner: PacketState) -> None:
        self.inner = inner
        self.kinds = []
        self.reports = []

    def decide(self, rng):
        kind = self.inner.decide(rng)
        self.kinds.append(kind)
        return kind

    def observe(self, report, rng):
        self.reports.append(report)
        self.inner.observe(report, rng)

    def sending_probability(self):
        return self.inner.sending_probability()


class RecordingProtocol(BackoffProtocol):
    name = "recording-low-sensing"

    def __init__(self) -> None:
        self.states = []

    def new_packet_state(self) -> PacketState:
        state = RecordingState(LowSensingBackoff().new_packet_state())
        self.states.append(state)
        return state


class TestFeedbackDelivery:
    def test_each_packet_observes_the_report_for_its_action(self):
        protocol = RecordingProtocol()
        config = SimulationConfig(
            protocol=protocol,
            adversary=CompositeAdversary(BatchArrivals(25), BernoulliJamming(0.2)),
            seed=9,
            max_slots=20_000,
        )
        result = Simulator(config).run()
        assert result.drained
        # Each slot's senders and listeners, rebuilt from the packets' own
        # decisions: one decision and one report per slot a packet was in
        # the system, departure slot included.
        senders = [set() for _ in range(result.num_slots)]
        listeners = [set() for _ in range(result.num_slots)]
        for packet, state in zip(result.packets, protocol.states):
            lifetime = packet.departure_slot - packet.arrival_slot + 1
            assert len(state.kinds) == len(state.reports) == lifetime
            for offset, kind in enumerate(state.kinds):
                if kind is ActionKind.SEND:
                    senders[packet.arrival_slot + offset].add(packet.packet_id)
                elif kind is ActionKind.LISTEN:
                    listeners[packet.arrival_slot + offset].add(packet.packet_id)
        # Every slot of a batch run is active, so the jammed active slots
        # are all the jammed slots.
        jammed = set(result.collector.jammed_active_slots)
        assert len(jammed) == result.num_jammed > 0
        outcomes, winners = [], []
        for slot, sent in enumerate(senders):
            if slot in jammed:
                outcome = SlotOutcome.JAMMED
            elif len(sent) == 1:
                outcome = SlotOutcome.SUCCESS
            else:
                outcome = SlotOutcome.COLLISION if sent else SlotOutcome.EMPTY
            winner = min(sent) if outcome is SlotOutcome.SUCCESS else None
            if winner is not None:
                assert result.packets[winner].departure_slot == slot
            outcomes.append(outcome)
            winners.append(winner)
        seen = set()
        for packet, state in zip(result.packets, protocol.states):
            for offset, report in enumerate(state.reports):
                slot = packet.arrival_slot + offset
                outcome = outcomes[slot]
                got = (report.feedback, report.sent, report.succeeded)
                if packet.packet_id in senders[slot]:
                    won = packet.packet_id == winners[slot]
                    assert got == (outcome.feedback, True, won)
                elif packet.packet_id in listeners[slot]:
                    assert got == (outcome.feedback, False, False)
                else:
                    assert got == (None, False, False)
                seen.add((outcome, report.sent, report.feedback is None))
        # Senders and listeners heard every outcome an action can meet.
        for outcome in (SlotOutcome.SUCCESS, SlotOutcome.COLLISION, SlotOutcome.JAMMED):
            assert (outcome, True, False) in seen
        for outcome in SlotOutcome:
            assert (outcome, False, False) in seen


class TestPotentialCollection:
    def test_potential_tracked_per_slot(self):
        result = run_batch(LowSensingBackoff(), 30, seed=4, collect_potential=True)
        assert result.potential is not None
        assert len(result.potential.samples) == result.num_slots
        # Potential is zero once the system drains.
        assert result.potential.samples[-1].potential >= 0.0

    def test_potential_upper_bounded_by_multiple_of_arrivals(self):
        result = run_batch(LowSensingBackoff(), 100, seed=4, collect_potential=True)
        assert result.potential.max_potential() <= 50.0 * (result.num_arrivals + 1)


class TestJammingSemantics:
    def test_burst_jamming_appears_in_counters(self):
        result = run_batch(
            LowSensingBackoff(), 50, seed=6, jammer=BurstJamming(start=0, length=30)
        )
        assert result.num_jammed == 30
        assert result.num_jammed_active == 30
        assert result.num_delivered == 50

    def test_periodic_jamming_slows_but_does_not_stop_delivery(self):
        jammed = run_batch(
            LowSensingBackoff(), 50, seed=6, jammer=PeriodicJamming(period=4)
        )
        clean = run_batch(LowSensingBackoff(), 50, seed=6)
        assert jammed.num_delivered == 50
        assert jammed.num_active_slots > clean.num_active_slots

    def test_no_success_in_jammed_slots(self):
        result = run_batch(
            LowSensingBackoff(),
            30,
            seed=9,
            jammer=BurstJamming(start=0, length=1000),
            max_slots=800,
        )
        # The burst covers the whole truncated execution: nothing succeeds.
        assert result.num_delivered == 0
        assert result.backlog == 30

    def test_reactive_jammer_delays_targeted_packet(self):
        budget = 15
        result = run_batch(
            LowSensingBackoff(),
            20,
            seed=10,
            jammer=ReactiveTargetedJammer(budget=budget, target_index=0),
        )
        victim = next(p for p in result.packets if p.packet_id == 0)
        others = [p for p in result.packets if p.packet_id != 0]
        assert result.num_jammed_active == budget
        # The victim pays at least one access per jammed transmission.
        assert victim.sends >= budget + 1
        assert victim.channel_accesses > max(p.channel_accesses for p in others)


class TestAdaptiveCoupledAdversary:
    def test_backlog_coupling_adversary_drains(self):
        adversary = BacklogCouplingAdversary(target_backlog=3, total_packets=40, jam_budget=5)
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=adversary,
            seed=2,
            max_slots=100_000,
        )
        result = Simulator(config).run()
        assert result.num_arrivals == 40
        assert result.num_delivered == 40
        assert result.drained


class TestOpenEndedWorkloads:
    def test_poisson_run_respects_max_slots(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(PoissonArrivals(rate=0.05)),
            seed=3,
            max_slots=2_000,
        )
        result = Simulator(config).run()
        assert result.num_slots == 2_000

    def test_trace_arrivals_drain_and_stop(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(TraceArrivals([2, 0, 0, 3])),
            seed=3,
            max_slots=100_000,
        )
        result = Simulator(config).run()
        assert result.num_arrivals == 5
        assert result.num_delivered == 5
        assert result.drained

    def test_step_api_advances_one_slot(self):
        config = SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(BatchArrivals(5)),
            seed=3,
            max_slots=10,
        )
        simulator = Simulator(config)
        assert simulator.slot == 0
        simulator.step()
        assert simulator.slot == 1
        assert simulator.backlog in (4, 5)
