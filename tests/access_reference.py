"""Scalar state machines driven by the access-driven kernels' coin order.

The reference re-runs one replication with the *scalar* objects — the
protocol's ``PacketState`` and the adversary — and draws every packet coin
from the replication's own vector packet stream, one at a time, in the
order the access-driven kernels consume it:

* one gap coin per arriving packet, in packet-id order; a packet's first
  access is ``Geometric(p)`` slots after the slot before its arrival, so it
  may access in the slot it arrives;
* per slot, for each accessing packet in packet-id order, a send-vs-listen
  coin (listening protocols only) and then the coin of its next gap, drawn
  before the channel resolves and used after the feedback update (a
  winner's gap coin is drawn and discarded).

Every active packet receives the scalar engine's feedback report (sleepers
the sleep report, which these state machines ignore), so bit-for-bit
agreement with the vector engine shows that the kernels implement exactly
the scalar protocol and adversary logic, and that an access-driven result
depends only on the replication's own seed and events.  The adversary must
be deterministic (it is called with ``rng=None``).  The vector engine keeps
no trace, so :func:`assert_counts_match` checks a vector result's
packet-derived per-slot counts against the reference's slot records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.adversary.base import SystemView
from repro.channel.feedback import SLEEP_REPORT, Feedback, FeedbackReport, SlotOutcome
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.core.potential import PotentialCoefficients, PotentialTracker
from repro.dynamics.trajectory import WindowSnapshot, build_trajectory, jammer_budget
from repro.sim.rng import derive_seed
from repro.sim.vector.rng import geometric_gaps


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Everything that happened in one reference slot."""

    slot: int
    outcome: SlotOutcome
    jammed: bool
    arrivals: tuple[int, ...]
    senders: tuple[int, ...]
    listeners: tuple[int, ...]
    winner: int | None
    active_before: int
    active_after: int
    contention: float
    potential: float

    @property
    def is_active(self) -> bool:
        """True when at least one packet was in the system during the slot."""
        return self.active_before > 0

    @property
    def is_success(self) -> bool:
        return self.outcome is SlotOutcome.SUCCESS


def decision_probabilities(protocol, state):
    """``(access probability, P(send | access) or None)`` of a scalar state.

    ``None`` marks a send-only protocol, whose every access is a send.  The
    float operations mirror the kernels' exactly.
    """
    if type(protocol) is DecoupledLowSensingBackoff:
        # Independent coins: send w.p. s, otherwise listen w.p. a.
        send = state.sending_probability()
        access = send + (1.0 - send) * state.access_probability()
        return access, send / access
    if type(protocol) is LowSensingBackoff:
        return state.access_probability(), state._send_given_access
    return state.sending_probability(), None


def gap(uniform: float, probability: float, horizon: int) -> int:
    """The kernels' Geometric(p) gap for one coin."""
    return int(geometric_gaps(np.array([uniform]), np.array([probability]), horizon)[0])


def assert_counts_match(result, records):
    """``result``'s per-slot counts and channel totals are what ``records`` say.

    The counts are the packet-derived :meth:`SimulationResult.slot_counts`
    and the collector's jammed active slots, compared slot for slot.
    """
    counts = result.slot_counts()
    assert len(records) == result.num_slots

    def cumulative(values):
        return np.cumsum(values, dtype=np.int64).tolist()

    assert counts.arrivals.tolist() == cumulative([len(r.arrivals) for r in records])
    assert counts.successes.tolist() == cumulative([r.is_success for r in records])
    assert counts.active_slots.tolist() == cumulative([r.is_active for r in records])
    assert counts.backlog.tolist() == [r.active_after for r in records]
    collector = result.collector
    assert collector.jammed_active_slots == [
        r.slot for r in records if r.jammed and r.is_active
    ]
    assert collector.num_collisions == sum(
        r.outcome is SlotOutcome.COLLISION for r in records
    )
    assert collector.num_jammed == sum(r.jammed for r in records)
    assert collector.total_sends == sum(len(r.senders) for r in records)
    assert collector.total_listens == sum(len(r.listeners) for r in records)


@dataclass
class Reference:
    """What one reference replication produced."""

    packets: list[tuple] = field(default_factory=list)
    records: list[SlotRecord] = field(default_factory=list)
    samples: list = field(default_factory=list)
    trajectory: object = None


def reference_run(
    protocol, adversary, seed, max_slots, *, collect=False, dynamics_window=0
):
    """One replication of ``protocol`` against a fresh scalar ``adversary``.

    Follows the scalar engine's slot order: view snapshot before the
    injections, arrivals, base jam, packet decisions, reactive jam,
    resolution, feedback, departure, then the optional trace record and
    potential sample (post-departure windows) and the dynamics snapshot.
    """
    generator = np.random.Generator(
        np.random.Philox(key=derive_seed(seed, "vector", "packets"))
    )
    coin = generator.random
    states: dict[int, object] = {}
    next_access: dict[int, int] = {}
    active: list[int] = []
    sends: dict[int, int] = {}
    listens: dict[int, int] = {}
    arrival_slots: dict[int, int] = {}
    departed: dict[int, int] = {}
    totals = dict(arrivals=0, successes=0, collisions=0, jammed=0, sends=0, listens=0)
    reference = Reference()
    tracker = PotentialTracker(PotentialCoefficients()) if collect else None
    snapshots: list[WindowSnapshot] = []

    def windows():
        return [
            states[index].window
            for index in active
            if getattr(states[index], "window", None) is not None
        ]

    def snapshot(num_slots):
        # Sequential ascending-id float additions, mirroring the vector cumsum.
        window_sum = probability_sum = 0.0
        for window in windows():
            window_sum += window
        for index in active:
            probability_sum += states[index].sending_probability()
        snapshots.append(
            WindowSnapshot(
                num_slots=num_slots,
                arrivals=totals["arrivals"],
                successes=totals["successes"],
                collisions=totals["collisions"],
                jammed=totals["jammed"],
                sends=totals["sends"],
                listens=totals["listens"],
                backlog=len(active),
                window_sum=window_sum,
                window_count=len(windows()),
                probability_sum=probability_sum,
            )
        )

    next_id = 0
    slot = 0
    while slot < max_slots and (active or not adversary.arrivals_exhausted(slot)):
        contention = 0.0
        for index in active:
            contention += states[index].sending_probability()
        view = SystemView(
            slot=slot, backlog=len(active), contention=contention, arrivals_so_far=next_id
        )
        count = adversary.arrivals(view, None)
        arrival_ids = tuple(range(next_id, next_id + count))
        for index in arrival_ids:
            state = protocol.new_packet_state()
            states[index] = state
            sends[index] = listens[index] = 0
            arrival_slots[index] = slot
            access, _ = decision_probabilities(protocol, state)
            next_access[index] = slot - 1 + gap(coin(), access, max_slots + 1)
            active.append(index)
        next_id += count
        totals["arrivals"] += count
        active_before = len(active)
        jammed = bool(adversary.jam(view, None))

        senders, listeners, gap_coins = [], [], {}
        for index in active:
            if next_access[index] != slot:
                continue
            _, share = decision_probabilities(protocol, states[index])
            if share is None or coin() < share:
                senders.append(index)
            else:
                listeners.append(index)
            gap_coins[index] = coin()
        if not jammed and adversary.reactive:
            jammed = bool(adversary.reactive_jam(view, tuple(senders), None))
        if jammed:
            outcome, winner, feedback = SlotOutcome.JAMMED, None, Feedback.NOISE
            totals["jammed"] += 1
        elif len(senders) == 1:
            outcome, winner, feedback = SlotOutcome.SUCCESS, senders[0], Feedback.SUCCESS
            totals["successes"] += 1
        elif senders:
            outcome, winner, feedback = SlotOutcome.COLLISION, None, Feedback.NOISE
            totals["collisions"] += 1
        else:
            outcome, winner, feedback = SlotOutcome.EMPTY, None, Feedback.EMPTY
        totals["sends"] += len(senders)
        totals["listens"] += len(listeners)
        for index in active:
            if index in senders:
                sends[index] += 1
                report = FeedbackReport(
                    feedback=feedback, sent=True, succeeded=index == winner
                )
            elif index in listeners:
                listens[index] += 1
                report = FeedbackReport(feedback=feedback, sent=False)
            else:
                report = SLEEP_REPORT
            states[index].observe(report, None)
        if winner is not None:
            active.remove(winner)
            departed[winner] = slot
        for index, uniform in gap_coins.items():
            if index != winner:
                access, _ = decision_probabilities(protocol, states[index])
                next_access[index] = slot + gap(uniform, access, max_slots)

        if collect:
            sample = tracker.record(slot, windows())
            reference.records.append(
                SlotRecord(
                    slot=slot,
                    outcome=outcome,
                    jammed=jammed,
                    arrivals=arrival_ids,
                    senders=tuple(senders),
                    listeners=tuple(listeners),
                    winner=winner,
                    active_before=active_before,
                    active_after=len(active),
                    contention=contention,
                    potential=sample.potential,
                )
            )
        if dynamics_window and (slot + 1) % dynamics_window == 0:
            snapshot(slot + 1)
        slot += 1

    reference.packets = [
        (index, arrival_slots[index], departed.get(index), sends[index], listens[index])
        for index in sorted(arrival_slots)
    ]
    if tracker is not None:
        reference.samples = tracker.samples
    if dynamics_window:
        if slot % dynamics_window:
            snapshot(slot)
        reference.trajectory = build_trajectory(
            dynamics_window, slot, snapshots, budget=jammer_budget(adversary)
        )
    return reference
