"""The slot-by-slot simulation engine.

Each slot proceeds in the order mandated by the paper's model (Section 1.1):

1. the adversary, seeing the state up to the end of the previous slot,
   injects packets and makes its (adaptive) jamming decision;
2. every active packet — including those injected this slot — chooses an
   action (sleep / listen / send) from its protocol state and private coins;
3. if the adversary is reactive and has not already jammed, it sees the set
   of senders and may jam reactively (Section 1.3);
4. :func:`~repro.channel.channel.resolve_slot` resolves the slot; a unique
   unjammed sender succeeds and departs; every packet receives its report
   for the outcome (senders and listeners hear the ternary feedback) and
   updates its protocol state;
5. metrics and the optional potential tracker record the slot.
"""

from __future__ import annotations

from repro.adversary.base import Adversary, SystemView
from repro.channel.actions import ActionKind
from repro.channel.channel import resolve_slot
from repro.channel.feedback import (
    LISTEN_REPORTS,
    SEND_REPORTS,
    SLEEP_REPORT,
    SlotOutcome,
)
from repro.core.potential import PotentialTracker
from repro.metrics.collectors import MetricsCollector
from repro.sim.config import SimulationConfig
from repro.sim.packet import Packet
from repro.sim.results import PacketRecord, SimulationResult
from repro.sim.rng import RandomStreams


class Simulator:
    """Runs one execution described by a :class:`SimulationConfig`."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        self.streams = RandomStreams(config.seed)
        self._adversary_rng = self.streams.adversary_stream()
        self._adversary: Adversary = config.adversary
        self._active: dict[int, Packet] = {}
        self._all_packets: list[Packet] = []
        self._next_packet_id = 0
        self.collector = MetricsCollector()
        self.potential: PotentialTracker | None = (
            PotentialTracker() if config.collect_potential else None
        )
        if config.dynamics_window:
            from repro.dynamics import DynamicsAccumulator, jammer_budget

            self._dynamics: DynamicsAccumulator | None = DynamicsAccumulator(
                config.dynamics_window, budget=jammer_budget(config.adversary)
            )
        else:
            self._dynamics = None
        self._slot = 0
        self._last_outcome: SlotOutcome | None = None
        # Contention is only computed when someone consumes it: an adversary
        # that declares it needs it, or the potential tracker.
        self._track_contention = bool(
            self._adversary.needs_contention or config.collect_potential
        )
        # Per-slot scratch buffers, reused across steps.
        self._actions_buffer: list[tuple[Packet, ActionKind]] = []
        self._senders_buffer: list[int] = []
        self._listeners_buffer: list[int] = []

    # -- Public API -----------------------------------------------------------

    @property
    def slot(self) -> int:
        """Index of the next slot to be simulated."""
        return self._slot

    @property
    def backlog(self) -> int:
        """Number of packets currently in the system."""
        return len(self._active)

    def active_windows(self) -> list[float]:
        """Window sizes of active packets (for protocols that expose one)."""
        windows = []
        for packet in self._active.values():
            window = getattr(packet.state, "window", None)
            if window is not None:
                windows.append(float(window))
        return windows

    def run(self) -> SimulationResult:
        """Run until drained or until ``max_slots``."""
        max_slots = self.config.max_slots
        while self._slot < max_slots:
            if not self._active and self._adversary.arrivals_exhausted(self._slot):
                break
            self.step()
        return self.result()

    def step(self) -> SlotOutcome:
        """Simulate a single slot and return its outcome."""
        slot = self._slot
        adversary_rng = self._adversary_rng
        collector = self.collector
        # The adversary's view of the state before this slot's injections,
        # built positionally in SystemView's field order.
        view = SystemView(
            slot,
            len(self._active),
            self._contention() if self._track_contention else 0.0,
            collector.num_arrivals,
            collector.num_successes,
            collector.num_jammed,
            collector.num_active_slots,
            self._last_outcome,
        )

        # 1. Adversary: injections and adaptive jamming (pre-slot decision).
        num_arrivals = self._adversary.arrivals(view, adversary_rng)
        if num_arrivals < 0:
            raise ValueError("adversary produced a negative arrival count")
        for _ in range(num_arrivals):
            self._inject(slot)
        jammed = bool(self._adversary.jam(view, adversary_rng))

        active_before = len(self._active)

        # 2. Packet decisions, in packet-id order.  Each decision is read
        # once here and kept for the feedback pass below.
        send_kind = ActionKind.SEND
        listen_kind = ActionKind.LISTEN
        senders = self._senders_buffer
        listeners = self._listeners_buffer
        actions = self._actions_buffer
        senders.clear()
        listeners.clear()
        actions.clear()
        for packet in self._active.values():
            kind = packet.state.decide(packet.rng)
            if kind is send_kind:
                senders.append(packet.packet_id)
            elif kind is listen_kind:
                listeners.append(packet.packet_id)
            actions.append((packet, kind))

        # 3. Reactive jamming (sees the senders of the current slot).
        if not jammed and self._adversary.reactive:
            jammed = bool(
                self._adversary.reactive_jam(view, tuple(senders), adversary_rng)
            )

        # 4. Channel resolution and feedback delivery.  Every packet
        # observes the shared report for its action and the slot's outcome,
        # sleepers included: Sawtooth's clock ticks on SLEEP_REPORT.
        outcome = resolve_slot(len(senders), jammed)
        send_report = SEND_REPORTS[outcome]
        listen_report = LISTEN_REPORTS[outcome]
        for packet, kind in actions:
            if kind is send_kind:
                packet.sends += 1
                report = send_report
            elif kind is listen_kind:
                packet.listens += 1
                report = listen_report
            else:
                report = SLEEP_REPORT
            packet.state.observe(report, packet.rng)
        if outcome is SlotOutcome.SUCCESS:
            self._active.pop(senders[0]).mark_departed(slot)

        # 5. Metrics and potential.
        collector.observe(
            outcome, num_arrivals, active_before, len(senders), len(listeners)
        )
        if self.potential is not None:
            self.potential.record(slot, self.active_windows())

        if self._dynamics is not None and (slot + 1) % self._dynamics.window == 0:
            self._sample_dynamics()

        self._last_outcome = outcome
        self._slot += 1
        return outcome

    def result(self) -> SimulationResult:
        """Package the execution's outcome (can be called at any point)."""
        records = [
            PacketRecord(
                packet_id=packet.packet_id,
                arrival_slot=packet.arrival_slot,
                departure_slot=packet.departure_slot,
                sends=packet.sends,
                listens=packet.listens,
            )
            for packet in self._all_packets
        ]
        dynamics = None
        if self._dynamics is not None:
            if self._dynamics.pending(self.collector.num_slots):
                # The run stopped mid-window: one final partial sample.
                self._sample_dynamics()
            dynamics = self._dynamics.build(self.collector.num_slots)
        return SimulationResult(
            config_description=self.config.describe(),
            protocol_name=self.config.protocol.name,
            seed=self.config.seed,
            num_slots=self._slot,
            drained=not self._active
            and bool(self._adversary.arrivals_exhausted(self._slot)),
            collector=self.collector,
            packets=records,
            potential=self.potential,
            dynamics=dynamics,
        )

    # -- Internals -------------------------------------------------------------

    def _sample_dynamics(self) -> None:
        """Snapshot counters and live gauges at a window boundary.

        Runs post-slot (after feedback updates and the winner's departure),
        so the gauges describe the same state the vector engine samples as
        each row crosses a boundary.  One O(backlog) pass; the RNG is
        untouched.
        """
        collector = self.collector
        window_sum = 0.0
        window_count = 0
        probability_sum = 0.0
        for packet in self._active.values():
            state = packet.state
            window = getattr(state, "window", None)
            if window is not None:
                window_sum += float(window)
                window_count += 1
            probability = state.sending_probability()
            if probability is not None:
                probability_sum += probability
        assert self._dynamics is not None
        self._dynamics.sample(
            num_slots=collector.num_slots,
            arrivals=collector.num_arrivals,
            successes=collector.num_successes,
            collisions=collector.num_collisions,
            jammed=collector.num_jammed,
            sends=collector.total_sends,
            listens=collector.total_listens,
            backlog=len(self._active),
            window_sum=window_sum,
            window_count=window_count,
            probability_sum=probability_sum,
        )

    def _inject(self, slot: int) -> None:
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        packet = Packet(
            packet_id=packet_id,
            arrival_slot=slot,
            state=self.config.protocol.new_packet_state(),
            rng=self.streams.packet_stream(packet_id),
        )
        self._active[packet_id] = packet
        self._all_packets.append(packet)

    def _contention(self) -> float:
        """The paper's C(t): the summed sending probabilities of the backlog."""
        contention = 0.0
        for packet in self._active.values():
            probability = packet.state.sending_probability()
            if probability is not None:
                contention += probability
        return contention
