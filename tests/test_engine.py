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
    def test_trace_records_every_slot(self):
        result = run_batch(LowSensingBackoff(), 20, seed=4, collect_trace=True)
        assert result.trace is not None
        assert result.trace.num_slots == result.num_slots
        assert result.trace.num_successes == result.num_delivered
        assert result.trace.num_arrivals == result.num_arrivals

    def test_trace_winner_matches_success(self):
        result = run_batch(LowSensingBackoff(), 20, seed=4, collect_trace=True)
        for record in result.trace:
            if record.outcome is SlotOutcome.SUCCESS:
                assert record.senders == (record.winner,)
                assert result.packets[record.winner].departure_slot == record.slot
                assert record.active_after == record.active_before - 1
            else:
                assert record.winner is None
                assert record.active_after >= record.active_before - 0

    def test_no_trace_by_default(self):
        assert run_batch(LowSensingBackoff(), 5, seed=4).trace is None


class RecordingState(PacketState):
    """LOW-SENSING state that keeps every report it observes."""

    def __init__(self, inner: PacketState) -> None:
        self.inner = inner
        self.reports = []

    def decide(self, rng):
        return self.inner.decide(rng)

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
            collect_trace=True,
        )
        result = Simulator(config).run()
        assert result.drained
        seen = set()
        for packet, state in zip(result.packets, protocol.states):
            # One report per slot the packet was in the system, departure
            # slot included.
            assert len(state.reports) == packet.departure_slot - packet.arrival_slot + 1
            for offset, report in enumerate(state.reports):
                record = result.trace[packet.arrival_slot + offset]
                got = (report.feedback, report.sent, report.succeeded)
                if packet.packet_id in record.senders:
                    won = packet.packet_id == record.winner
                    assert got == (record.outcome.feedback, True, won)
                elif packet.packet_id in record.listeners:
                    assert got == (record.outcome.feedback, False, False)
                else:
                    assert got == (None, False, False)
                seen.add((record.outcome, report.sent, report.feedback is None))
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
