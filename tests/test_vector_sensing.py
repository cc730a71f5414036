"""Tests for the vectorized sensing tier (LSB / Sawtooth / full-sensing MW).

Three layers of checking, from exact to statistical:

* **state-machine identity** — driving the scalar ``PacketState`` objects
  with the *vector engine's own coins* in its own order (the gap order of
  ``access_reference`` for LOW-SENSING; one coin per active packet per slot
  from the row's packet stream, in packet-id order, with the same
  trichotomy thresholds, for the every-slot Sawtooth and MW, also across
  the idle stretches between arrival bursts) and the same per-replication
  feedback must reproduce the vector results bit-for-bit.
  This proves the kernels implement exactly the scalar protocol logic, so
  any residual vector-vs-scalar difference is the random-stream layout —
  which is the vector engine's documented contract;
* **seeded randomized-grid equivalence** — a deterministic sample of
  protocol × arrivals × jammer × window-size configurations through the
  full statistical harness (Welch + KS + bit-identical repeat);
* **conservation invariants** — listens accounted per packet and in the
  collector, accesses = sends + listens, budgets respected.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from access_reference import reference_run
from repro.adversary.arrivals import BatchArrivals, PeriodicBurstArrivals, PoissonArrivals
from repro.adversary.base import SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming, BurstJamming, NoJamming, PeriodicJamming
from repro.channel.feedback import SLEEP_REPORT, Feedback, FeedbackReport
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.experiments.plan import RunSpec, factory
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.sawtooth import SawtoothBackoff
from repro.sim.vector import VectorSimulator
from repro.sim.vector.protocols import LowSensingKernel, make_protocol_row_kernel
from repro.sim.vector.rng import VectorStreams
from tests.conftest import run_specs


def packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


# ---------------------------------------------------------------------------
# State-machine identity: scalar PacketStates driven by the vector coins
# ---------------------------------------------------------------------------


class _SlotUniform:
    """A scalar jammer's ``rng``: the adversary stream's uniform of the slot.

    The vector Bernoulli kernel reads one uniform per slot, jam or not,
    while the scalar jammer draws only in the slots it may jam.
    """

    value = 0.0

    def random(self) -> float:
        return self.value


def dense_reference_run(protocol, adversary, seed, max_slots, thresholds):
    """Re-run one replication with scalar PacketStates on the row's coins.

    Each slot, every active packet, arrivals included, takes the next
    uniform of the row's packet stream, in packet-id order.
    ``thresholds(state) -> (t_send, t_listen)`` maps a scalar packet state
    to the single-coin trichotomy the kernels use: ``u < t_send`` sends,
    ``t_send <= u < t_listen`` listens, the rest sleeps.  ``adversary`` is a
    scalar composite of deterministic arrivals and a jammer that reads at
    most one uniform a slot, which it takes from the row's adversary stream,
    one per slot as the vector kernel pre-draws them.  The reference steps
    every slot, including the idle stretches the engine skips.
    """
    streams = VectorStreams([seed])
    packet_coin = streams.packet_generators[0].random
    adversary_coin = streams.adversary_generators[0].random
    jam_rng = _SlotUniform()
    states, arrival_slots, sends, listens = [], [], [], []
    active: list[int] = []
    departed: dict[int, int] = {}
    slot = 0
    while slot < max_slots and (active or not adversary.arrivals_exhausted(slot)):
        view = SystemView(
            slot=slot, backlog=len(active), contention=0.0, arrivals_so_far=len(states)
        )
        for _ in range(adversary.arrivals(view, None)):
            active.append(len(states))
            states.append(protocol.new_packet_state())
            arrival_slots.append(slot)
            sends.append(0)
            listens.append(0)
        jam_rng.value = adversary_coin()
        jammed = adversary.jam(view, jam_rng)
        senders, listeners = [], []
        for index in active:
            t_send, t_listen = thresholds(states[index])
            coin = packet_coin()
            if coin < t_send:
                senders.append(index)
            elif coin < t_listen:
                listeners.append(index)
        if jammed:
            winner, feedback = None, Feedback.NOISE
        elif len(senders) == 1:
            winner, feedback = senders[0], Feedback.SUCCESS
        elif senders:
            winner, feedback = None, Feedback.NOISE
        else:
            winner, feedback = None, Feedback.EMPTY
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
        slot += 1
    return [
        (index, arrival_slots[index], departed.get(index), sends[index], listens[index])
        for index in range(len(states))
    ]


def _mw_thresholds(state):
    return state.probability, 1.0  # sends or listens, never sleeps


def _sawtooth_thresholds(state):
    return 1.0 / state.window, 1.0 / state.window  # sends or sleeps


class TestKernelsMatchScalarStateMachines:
    """Same coins + scalar protocol logic == vector results, bit-for-bit."""

    def test_full_sensing_mw(self):
        protocol = FullSensingMultiplicativeWeights()
        for seed in (3, 11, 42):
            vector = VectorSimulator.from_specs(
                run_specs(
                    protocol,
                    CompositeAdversary(BatchArrivals(10), NoJamming()),
                    [seed],
                    max_slots=600,
                )
            ).run()[0]
            assert packet_tuples(vector) == dense_reference_run(
                protocol,
                CompositeAdversary(BatchArrivals(10), NoJamming()),
                seed,
                600,
                _mw_thresholds,
            )

    def test_sawtooth(self):
        protocol = SawtoothBackoff(initial_window=4.0)
        for seed in (3, 11, 42):
            vector = VectorSimulator.from_specs(
                run_specs(
                    protocol,
                    CompositeAdversary(BatchArrivals(12), NoJamming()),
                    [seed],
                    max_slots=800,
                )
            ).run()[0]
            assert packet_tuples(vector) == dense_reference_run(
                protocol,
                CompositeAdversary(BatchArrivals(12), NoJamming()),
                seed,
                800,
                _sawtooth_thresholds,
            )

    @pytest.mark.parametrize(
        "protocol, thresholds",
        [
            pytest.param(SawtoothBackoff(), _sawtooth_thresholds, id="sawtooth"),
            pytest.param(
                FullSensingMultiplicativeWeights(), _mw_thresholds, id="full-sensing-mw"
            ),
        ],
    )
    def test_every_slot_kernels_under_bursts_and_jamming(self, protocol, thresholds):
        # Each burst drains long before the next, so the batch skips the
        # idle stretches between bursts that the reference steps through.
        def adversary():
            return CompositeAdversary(
                PeriodicBurstArrivals(8, period=400, num_bursts=3),
                BernoulliJamming(0.2, budget=25),
            )

        for seed in (3, 11):
            vector = VectorSimulator.from_specs(
                run_specs(protocol, adversary(), [seed], max_slots=3000)
            ).run()[0]
            assert packet_tuples(vector) == dense_reference_run(
                protocol, adversary(), seed, 3000, thresholds
            )
            assert vector.collector.num_jammed > 0
            assert (vector.slot_counts().backlog[:800] == 0).any()

    def test_low_sensing(self):
        protocol = LowSensingBackoff()
        for seed in (3, 11):
            vector = VectorSimulator.from_specs(
                run_specs(
                    protocol,
                    CompositeAdversary(BatchArrivals(10), NoJamming()),
                    [seed],
                    max_slots=4000,
                )
            ).run()[0]
            reference = reference_run(
                protocol, CompositeAdversary(BatchArrivals(10), NoJamming()), seed, 4000
            )
            assert packet_tuples(vector) == reference.packets

    def test_decoupled_low_sensing(self):
        protocol = DecoupledLowSensingBackoff()
        for seed in (3, 11):
            vector = VectorSimulator.from_specs(
                run_specs(
                    protocol,
                    CompositeAdversary(BatchArrivals(10), NoJamming()),
                    [seed],
                    max_slots=4000,
                )
            ).run()[0]
            reference = reference_run(
                protocol, CompositeAdversary(BatchArrivals(10), NoJamming()), seed, 4000
            )
            assert packet_tuples(vector) == reference.packets


class TestLowSensingKernelMath:
    """The kernel's window updates match LowSensingParameters exactly."""

    def test_thresholds_and_updates_track_the_scalar_state(self):
        params = LowSensingParameters(c=1.0, w_min=100.0)
        protocol = LowSensingBackoff(params=params)
        kernel = make_protocol_row_kernel([(protocol, 1)], 1)
        assert isinstance(kernel, LowSensingKernel)
        state = protocol.new_packet_state()
        cell = np.zeros(1, dtype=np.int64)  # the only cell, in row 0
        empty = np.zeros(1, dtype=np.int64)  # outcome code 0

        def assert_in_sync():
            assert kernel.window_matrix()[0, 0] == pytest.approx(state.window, rel=1e-12)
            assert kernel.sending_probabilities()[0, 0] == pytest.approx(
                state.sending_probability(), rel=1e-12
            )
            assert kernel.access_probability(cell, cell)[0] == pytest.approx(
                state.access_probability(), rel=1e-12
            )

        assert_in_sync()
        # A run of noisy slots, collisions (code 2) and jams (code 3); the
        # listener hears NOISE: backoff each time.
        for step in range(12):
            kernel.on_access(cell, cell, np.full(1, 2 + step % 2))
            state.observe(FeedbackReport(feedback=Feedback.NOISE, sent=False), None)
            assert_in_sync()
        # Then silence: back on, clamped at w_min.
        for _ in range(20):
            kernel.on_access(cell, cell, empty)
            state.observe(FeedbackReport(feedback=Feedback.EMPTY, sent=False), None)
            assert_in_sync()
        assert kernel.window_matrix()[0, 0] == pytest.approx(params.w_min)


# ---------------------------------------------------------------------------
# Seeded randomized-grid statistical equivalence
# ---------------------------------------------------------------------------


def _grid_cases():
    """A deterministic sample of the sensing configuration grid.

    The grid spans protocol (with varying window parameters) × arrivals ×
    jammer; the sample is drawn once with a fixed seed so the sweep is
    reproducible, and each drawn case runs through the full statistical
    harness.
    """
    rng = random.Random(20260731)
    protocols = [
        LowSensingBackoff(),
        LowSensingBackoff(params=LowSensingParameters(c=1.0, w_min=100.0)),
        DecoupledLowSensingBackoff(),
        SawtoothBackoff(initial_window=4.0),
        SawtoothBackoff(initial_window=16.0),
        FullSensingMultiplicativeWeights(),
        FullSensingMultiplicativeWeights(initial_probability=0.1, p_max=0.3),
    ]
    arrivals = [
        factory(BatchArrivals, 30),
        factory(PoissonArrivals, rate=0.02, horizon=600),
        factory(PeriodicBurstArrivals, burst_size=6, period=120, num_bursts=4),
    ]
    jammers = [
        factory(NoJamming),
        factory(BernoulliJamming, probability=0.05, budget=20),
        factory(PeriodicJamming, period=7, budget=40),
        factory(BurstJamming, start=15, length=25),
    ]
    cases = []
    for protocol in protocols:
        arrival = rng.choice(arrivals)
        jammer = rng.choice(jammers)
        cases.append(
            pytest.param(
                protocol,
                factory(CompositeAdversary, arrival, jammer),
                id=f"{protocol.name}-{arrival.fn.__name__}-{jammer.fn.__name__}",
            )
        )
    return cases


class TestRandomizedGridEquivalence:
    @pytest.mark.parametrize("protocol,adversary", _grid_cases())
    def test_sensing_kernel_statistically_matches_scalar(self, protocol, adversary):
        from repro.analysis.equivalence import verify_vector_equivalence

        specs = [
            RunSpec(protocol=protocol, adversary=adversary, seed=seed, max_slots=20_000)
            for seed in range(1, 9)
        ]
        report = verify_vector_equivalence(specs)
        assert report.passed, report.render()


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------


class TestSensingInvariants:
    @pytest.mark.parametrize(
        "protocol",
        [
            LowSensingBackoff(),
            FullSensingMultiplicativeWeights(),
            SawtoothBackoff(),
        ],
        ids=["low-sensing", "full-sensing-mw", "sawtooth"],
    )
    def test_listen_accounting_and_conservation(self, protocol):
        results = VectorSimulator.from_specs(
            run_specs(
                protocol,
                CompositeAdversary(
                    BatchArrivals(25), BernoulliJamming(probability=0.05, budget=15)
                ),
                [3, 7, 13],
                max_slots=30_000,
            )
        ).run()
        for result in results:
            collector = result.collector
            assert collector.num_arrivals == len(result.packets)
            assert collector.total_sends == sum(p.sends for p in result.packets)
            assert collector.total_listens == sum(p.listens for p in result.packets)
            assert collector.num_jammed <= 15
            assert (
                collector.total_channel_accesses
                == collector.total_sends + collector.total_listens
            )
        if protocol.name == "sawtooth":
            assert all(r.collector.total_listens == 0 for r in results)
        else:
            # The sensing protocols listen; the accounting must show it.
            assert all(r.collector.total_listens > 0 for r in results)

    def test_repeat_runs_bit_identical(self):
        def run_batch():
            return VectorSimulator.from_specs(
                run_specs(
                    LowSensingBackoff(),
                    CompositeAdversary(
                        BatchArrivals(30), BernoulliJamming(probability=0.04, budget=12)
                    ),
                    [11, 23, 47],
                )
            ).run()

        for first, second in zip(run_batch(), run_batch()):
            assert first.backlog_series() == second.backlog_series()
            assert packet_tuples(first) == packet_tuples(second)

    def test_sensing_with_capacity_growth(self):
        # Poisson arrivals overflow the initial capacity guess mid-run;
        # sensing state (thresholds, listen counters) must grow with it.
        def run_batch():
            return VectorSimulator.from_specs(
                run_specs(
                    FullSensingMultiplicativeWeights(),
                    CompositeAdversary(
                        PoissonArrivals(rate=0.2, horizon=1000), NoJamming()
                    ),
                    [1, 2, 3],
                    max_slots=8_000,
                )
            ).run()

        first, second = run_batch(), run_batch()
        assert max(r.num_arrivals for r in first) > 64
        for a, b in zip(first, second):
            assert packet_tuples(a) == packet_tuples(b)

    def test_drains_like_scalar_on_single_packet(self):
        # One packet, MW: sends with p=0.25 until its first success.
        results = VectorSimulator.from_specs(
            run_specs(
                FullSensingMultiplicativeWeights(),
                CompositeAdversary(BatchArrivals(1), NoJamming()),
                [5],
            )
        ).run()
        packet = results[0].packets[0]
        assert packet.departure_slot is not None
        assert packet.sends == 1 + 0  # the winning send is its only send
        assert packet.listens == results[0].num_slots - 1
