"""Tests for the access calendar, the kernels on it, and the row coin order.

Every kernel changes a packet's state only when it accesses the channel, so
the engine touches only the packets due and records stretches without
accesses or arrivals in bulk.  LOW-SENSING, decoupled LSB, BEB, polynomial
and fixed-probability draw the gap to each packet's next access; Sawtooth
and full-sensing MW access every slot they are active.  Six layers:

* **state-machine identity** — the scalar ``PacketState`` and adversary
  objects driven with the access-driven coin order
  (``access_reference.reference_run``) reproduce every kernel bit-for-bit,
  per-slot counts, potential and dynamics outputs included;
* **row locality** — for every kernel, the every-slot Sawtooth and
  full-sensing MW included, a (spec, seed) result is bit-identical run
  alone, in its group, in a group resized from 2 to 16, and inside a
  mega-batch, also when the batch grows its packet capacity at different
  slots.  Larger
  groups skip fewer idle slots than singletons, so this also shows that
  skipping changes no result;
* **the row loop** — the send-only kernels step each row to its own next
  event; under every arrival schedule and every jammer, reactive
  and adaptive ones included, with or without Φ and dynamics, the
  results equal the same specs forced into lockstep (``steps_rows``
  patched), and they are row-local too;
* **the slot body's contracts** — ``on_access`` updates every accessor,
  winners included, and returns exactly the access probabilities the
  kernel then reads; a listener that heard another packet's success keeps
  its state bit for bit; a departed cell never accesses again;
* **the gap sampler** — chi-square against Geometric(p), and its edges;
* **the coin stream** — a row consumes exactly its stream's prefix,
  however the buffer is refilled, one or two coins per entry.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from access_reference import assert_counts_match, reference_run
from repro.adversary.arrivals import BatchArrivals, PeriodicBurstArrivals, PoissonArrivals
from repro.adversary.composite import CompositeAdversary
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
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.experiments.plan import factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff
from repro.scenarios.schedule import Phase
from repro.sim.vector import VectorSimulator
from repro.sim.vector import engine as vector_engine
from repro.sim.vector import rng as vector_rng
from repro.sim.vector.protocols import make_protocol_row_kernel
from repro.sim.vector.rng import RowCoins, geometric_gaps
from repro.telemetry import MemorySink, TelemetrySession, activated
from tests.conftest import run_specs

#: The kernels that draw the gap to each packet's next access.
ACCESS_DRIVEN = [
    pytest.param(LowSensingBackoff(), id="low-sensing"),
    pytest.param(DecoupledLowSensingBackoff(), id="low-sensing-decoupled"),
    pytest.param(BinaryExponentialBackoff(), id="binary-exponential"),
    pytest.param(PolynomialBackoff(), id="polynomial"),
    pytest.param(FixedProbabilityProtocol(probability=0.08), id="fixed-probability"),
]

#: The kernels whose packets access every slot they are active.
EVERY_SLOT = [
    pytest.param(SawtoothBackoff(), id="sawtooth"),
    pytest.param(FullSensingMultiplicativeWeights(), id="full-sensing-mw"),
]

#: The access-driven kernels whose every access is a send: they step by row.
SEND_ONLY = ACCESS_DRIVEN[2:]


def packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


# ---------------------------------------------------------------------------
# State-machine identity
# ---------------------------------------------------------------------------


def _scalar_adversaries():
    """Fresh deterministic scalar adversaries, as (arrival process, jammer)."""
    return {
        "batch": lambda: (BatchArrivals(12), NoJamming()),
        "bursts-periodic-jam": lambda: (
            PeriodicBurstArrivals(burst_size=4, period=60, num_bursts=4),
            PeriodicJamming(period=7, budget=20),
        ),
        "reactive-success": lambda: (BatchArrivals(10), ReactiveSuccessJammer(budget=5)),
        "reactive-targeted": lambda: (
            BatchArrivals(8),
            ReactiveTargetedJammer(budget=4, target_index=2),
        ),
    }


def _stepped(specs, counter="kernel_invocations", *, lockstep=False):
    """Run ``specs`` as one batch: ``(results, stepping, counter total)``.

    ``lockstep=True`` patches the loop predicate, forcing lockstep.
    """
    mem = MemorySink()
    with pytest.MonkeyPatch.context() as patch:
        if lockstep:
            patch.setattr(vector_engine, "steps_rows", lambda *args: False)
        with activated(TelemetrySession([mem])):
            results = VectorSimulator.from_specs(specs).run()
    (span,) = mem.spans("simulate")
    return results, span["attrs"]["stepping"], mem.counter_total(counter)


class TestKernelsMatchScalarStateMachines:
    @pytest.mark.parametrize("protocol", ACCESS_DRIVEN)
    @pytest.mark.parametrize("kind", sorted(_scalar_adversaries()))
    def test_bit_identical_to_the_scalar_state_machine(self, protocol, kind):
        build = _scalar_adversaries()[kind]
        # Send-only kernels take the row loop under every adversary, so the
        # scalar reference covers both loops.
        listening = isinstance(protocol, LowSensingBackoff)
        expected = "lockstep" if listening else "rows"
        for seed in (3, 11):
            (vector,), stepping, _ = _stepped(
                run_specs(
                    protocol,
                    CompositeAdversary(*build()),
                    [seed],
                    max_slots=3000,
                )
            )
            assert stepping == expected
            reference = reference_run(
                protocol, CompositeAdversary(*build()), seed, 3000, collect=True
            )
            assert packet_tuples(vector) == reference.packets
            assert_counts_match(vector, reference.records)

    @pytest.mark.parametrize("protocol", ACCESS_DRIVEN)
    def test_slot_counts_potential_and_dynamics_match(self, protocol):
        # The send-only kernels collect every output on the row loop.
        listening = isinstance(protocol, LowSensingBackoff)
        for seed in (3, 11):
            (vector,), stepping, _ = _stepped(
                run_specs(
                    protocol,
                    CompositeAdversary(
                        BatchArrivals(10), ReactiveSuccessJammer(budget=4)
                    ),
                    [seed],
                    max_slots=3000,
                    collect_potential=True,
                    dynamics_window=64,
                )
            )
            assert stepping == ("lockstep" if listening else "rows")
            reference = reference_run(
                protocol,
                CompositeAdversary(BatchArrivals(10), ReactiveSuccessJammer(budget=4)),
                seed,
                3000,
                collect=True,
                dynamics_window=64,
            )
            assert packet_tuples(vector) == reference.packets
            assert_counts_match(vector, reference.records)
            assert list(vector.potential.samples) == reference.samples
            assert vector.dynamics == reference.trajectory

    def test_a_first_gap_past_the_run_never_accesses(self):
        # Packets arriving at slot 0 with p ~ 0 almost surely never access
        # within the run: a capped first gap must not land on its last slot.
        protocol = FixedProbabilityProtocol(probability=1e-12)
        for seed in (3, 11):
            vector = VectorSimulator.from_specs(
                run_specs(
                    protocol,
                    CompositeAdversary(BatchArrivals(3), NoJamming()),
                    [seed],
                    max_slots=100,
                )
            ).run()[0]
            assert [(p.sends, p.departure_slot) for p in vector.packets] == [(0, None)] * 3
            assert (vector.num_slots, vector.drained) == (100, False)
            assert vector.collector.num_successes == vector.collector.num_collisions == 0
            reference = reference_run(
                protocol, CompositeAdversary(BatchArrivals(3), NoJamming()), seed, 100
            )
            assert packet_tuples(vector) == reference.packets


# ---------------------------------------------------------------------------
# Row locality: a result is a function of (spec, seed) alone
# ---------------------------------------------------------------------------


def _adversary(kind, shift=0):
    if kind == "batch-bernoulli":
        return factory(
            CompositeAdversary,
            factory(BatchArrivals, 16 + shift),
            factory(BernoulliJamming, probability=0.05, budget=8 + shift),
        )
    if kind == "poisson-reactive":
        return factory(
            CompositeAdversary,
            factory(PoissonArrivals, rate=0.02 + 0.01 * shift, horizon=400),
            factory(ReactiveSuccessJammer, budget=4 + shift),
        )
    if kind == "poisson-periodic":
        return factory(
            CompositeAdversary,
            factory(PoissonArrivals, rate=0.02 + 0.01 * shift, horizon=900),
            factory(PeriodicJamming, period=7 + shift, budget=10 + shift),
        )
    # Poisson arrivals past the engine's initial 64 packet columns: the
    # batch grows its capacity at a slot that depends on every row in it.
    arrivals = factory(PoissonArrivals, rate=0.12 + 0.01 * shift, horizon=800)
    if kind == "growing-bernoulli":
        return factory(
            CompositeAdversary,
            arrivals,
            factory(BernoulliJamming, 0.05, budget=30 + shift),
        )
    if kind == "growing-reactive":
        return factory(
            CompositeAdversary, arrivals, factory(ReactiveSuccessJammer, budget=40 + shift)
        )
    assert kind == "growing-adaptive"
    return factory(
        CompositeAdversary,
        arrivals,
        factory(AdaptiveContentionJammer, budget=100 + shift, target_regime="good"),
    )


def assert_same_run(got, expected):
    assert packet_tuples(got) == packet_tuples(expected)
    assert (got.num_slots, got.drained) == (expected.num_slots, expected.drained)
    assert (
        got.collector.jammed_active_slots == expected.collector.jammed_active_slots
    )
    assert got.throughput_series() == expected.throughput_series()
    assert got.collector.num_jammed == expected.collector.num_jammed
    if expected.potential is not None:
        assert list(got.potential.samples) == list(expected.potential.samples)
    assert got.dynamics == expected.dynamics


def _seed_2_in_every_context(protocol, kind, counter, *, lockstep=False, **options):
    """Seed 2 alone, in groups of 2 and 16, and in a mega-batch.

    Returns ``(alone, [the other three], the telemetry ``counter`` alone,
    and in the group of 16)``.  ``lockstep=True`` forces every context into
    lockstep.
    """
    adversary = _adversary(kind)
    seeds = list(range(1, 17))
    options = dict(max_slots=3000, **options)
    (alone,), _, alone_count = _stepped(
        run_specs(protocol, adversary, [2], **options), counter, lockstep=lockstep
    )
    grouped, _, _ = _stepped(
        run_specs(protocol, adversary, seeds[:2], **options), lockstep=lockstep
    )
    resized, _, resized_count = _stepped(
        run_specs(protocol, adversary, seeds, **options), counter, lockstep=lockstep
    )
    mega, _, _ = _stepped(
        run_specs(protocol, _adversary(kind, shift=4), [7, 8], **options)
        + run_specs(protocol, adversary, seeds[:2], **options),
        lockstep=lockstep,
    )
    return alone, [grouped[1], resized[1], mega[3]], alone_count, resized_count


class TestRowLocality:
    @pytest.mark.parametrize("protocol", ACCESS_DRIVEN)
    @pytest.mark.parametrize("kind", ["batch-bernoulli", "poisson-reactive"])
    def test_alone_grouped_resized_and_mega_batched(self, protocol, kind):
        alone, others, alone_skipped, resized_skipped = _seed_2_in_every_context(
            protocol, kind, "idle_slots_skipped", lockstep=True, dynamics_window=50
        )
        for other in others:
            assert_same_run(other, alone)
        # The contexts skipped different idle stretches around this row.
        assert alone_skipped > 0
        assert alone_skipped != resized_skipped

    @pytest.mark.parametrize("protocol", EVERY_SLOT)
    @pytest.mark.parametrize(
        "kind", ["batch-bernoulli", "growing-reactive", "growing-adaptive"]
    )
    def test_dense_kernels_alone_grouped_resized_and_mega_batched(self, protocol, kind):
        alone, others, _, _ = _seed_2_in_every_context(
            protocol, kind, "idle_slots_skipped", lockstep=True, dynamics_window=50
        )
        for other in others:
            assert_same_run(other, alone)
        if kind != "batch-bernoulli":
            assert len(alone.packets) > 64  # the batch grew its capacity

    @pytest.mark.parametrize("protocol", ACCESS_DRIVEN + EVERY_SLOT)
    def test_collected_outputs_are_row_local(self, protocol):
        # Φ groups stack like any other, so the contexts include a
        # mega-batch with a group of other adversary parameters.
        alone, others, _, _ = _seed_2_in_every_context(
            protocol,
            "poisson-reactive",
            "kernel_invocations",
            collect_potential=True,
            dynamics_window=50,
        )
        for other in others:
            assert_same_run(other, alone)


# ---------------------------------------------------------------------------
# The row loop: each send-only row steps only its own events
# ---------------------------------------------------------------------------


ROW_ARRIVALS = {
    "batch": lambda: factory(BatchArrivals, 24),
    "poisson": lambda: factory(PoissonArrivals, rate=0.03, horizon=700),
    "periodic-burst": lambda: factory(
        PeriodicBurstArrivals, burst_size=5, period=150, num_bursts=4
    ),
    "scheduled": lambda: factory(
        ScheduledArrivals,
        factory(Phase, factory(BatchArrivals, 10), duration=300),
        factory(Phase, factory(PoissonArrivals, rate=0.02, horizon=500)),
    ),
}

ROW_JAMMERS = {
    "none": lambda: factory(NoJamming),
    "bernoulli": lambda: factory(BernoulliJamming, 0.1, budget=12, only_active=True),
    "periodic": lambda: factory(PeriodicJamming, period=9, budget=15),
    "burst": lambda: factory(BurstJamming, start=40, length=25, period=300),
    "budgeted-random": lambda: factory(BudgetedRandomJamming, budget=20, horizon=900),
    "scheduled": lambda: factory(
        ScheduledJamming,
        factory(Phase, factory(BernoulliJamming, 0.3, budget=10), duration=200),
        factory(Phase, factory(NoJamming), duration=200),
        factory(Phase, factory(PeriodicJamming, period=5, budget=10)),
    ),
    "reactive-success": lambda: factory(ReactiveSuccessJammer, budget=8),
    "reactive-targeted": lambda: factory(
        ReactiveTargetedJammer, budget=8, target_index=2
    ),
    "adaptive": lambda: factory(
        AdaptiveContentionJammer, budget=15, target_regime="good"
    ),
    "adaptive-phase": lambda: factory(
        ScheduledJamming,
        factory(Phase, factory(NoJamming), duration=50),
        factory(
            Phase, factory(AdaptiveContentionJammer, budget=10, target_regime="any")
        ),
    ),
}

#: Each arrival schedule's open-ended counterpart: it never exhausts, so
#: every row runs to ``max_slots``.
OPEN_ROW_ARRIVALS = {
    "batch": lambda: factory(PeriodicBurstArrivals, burst_size=24, period=600),
    "poisson": lambda: factory(PoissonArrivals, rate=0.03),
    "periodic-burst": lambda: factory(PeriodicBurstArrivals, burst_size=5, period=150),
    "scheduled": lambda: factory(
        ScheduledArrivals,
        factory(Phase, factory(BatchArrivals, 10), duration=300),
        factory(Phase, factory(PoissonArrivals, rate=0.02)),
    ),
}

#: Collected outputs and the arrival schedules they run under, on a
#: ``max_slots`` that no dynamics window divides; the 64-slot windows run
#: open-ended schedules, so every row's trajectory reaches it.
ROW_OUTPUTS = {
    "potential": (dict(collect_potential=True), ROW_ARRIVALS),
    "dynamics-7": (dict(dynamics_window=7), ROW_ARRIVALS),
    "dynamics-64": (dict(dynamics_window=64), OPEN_ROW_ARRIVALS),
}


def assert_rows_match_lockstep(specs):
    """The row loop ran ``specs`` in fewer passes, with lockstep's results."""
    rows, stepping, row_passes = _stepped(specs)
    lockstep, forced, lockstep_passes = _stepped(specs, lockstep=True)
    assert (stepping, forced) == ("rows", "lockstep")
    for got, expected in zip(rows, lockstep):
        assert_same_run(got, expected)
    assert row_passes <= lockstep_passes
    return rows


class TestRowLoop:
    @pytest.mark.parametrize("protocol", SEND_ONLY)
    @pytest.mark.parametrize("arrivals", sorted(ROW_ARRIVALS))
    @pytest.mark.parametrize("jammer", sorted(ROW_JAMMERS))
    def test_matches_lockstep(self, protocol, arrivals, jammer):
        adversary = factory(
            CompositeAdversary, ROW_ARRIVALS[arrivals](), ROW_JAMMERS[jammer]()
        )
        results = assert_rows_match_lockstep(
            run_specs(protocol, adversary, [1, 2, 3], max_slots=2500)
        )
        assert any(result.num_delivered for result in results)

    @pytest.mark.parametrize("protocol", SEND_ONLY)
    def test_mega_batch_matches_lockstep_and_each_group(self, protocol):
        first, second = (_adversary("batch-bernoulli", shift) for shift in (0, 4))
        specs = run_specs(protocol, first, [1, 2], max_slots=3000) + run_specs(
            protocol, second, [3, 4], max_slots=3000
        )
        mega = assert_rows_match_lockstep(specs)
        alone = _stepped(specs[:2])[0] + _stepped(specs[2:])[0]
        for got, expected in zip(mega, alone):
            assert_same_run(got, expected)

    @pytest.mark.parametrize(
        "outputs", [pytest.param(ROW_OUTPUTS[name], id=name) for name in ROW_OUTPUTS]
    )
    @pytest.mark.parametrize("protocol", SEND_ONLY)
    @pytest.mark.parametrize("arrivals", sorted(ROW_ARRIVALS))
    @pytest.mark.parametrize("jammer", ["bernoulli", "reactive-success", "adaptive"])
    def test_outputs_match_lockstep(self, protocol, arrivals, jammer, outputs):
        options, schedules = outputs
        adversary = factory(
            CompositeAdversary, schedules[arrivals](), ROW_JAMMERS[jammer]()
        )
        results = assert_rows_match_lockstep(
            run_specs(protocol, adversary, [1, 2, 3], max_slots=1234, **options)
        )
        assert any(result.num_delivered for result in results)
        if schedules is OPEN_ROW_ARRIVALS:
            assert all(result.num_slots == 1234 for result in results)

    @pytest.mark.parametrize(
        "kind", ["growing-bernoulli", "growing-reactive", "growing-adaptive"]
    )
    def test_capacity_growth_matches_lockstep(self, kind):
        results = assert_rows_match_lockstep(
            run_specs(
                BinaryExponentialBackoff(), _adversary(kind), [1, 2, 3], max_slots=3000
            )
        )
        assert max(len(result.packets) for result in results) > 64

    def test_open_ended_runs_to_an_uneven_horizon_match_lockstep(self):
        # Bursts without a count never exhaust, so every row runs to
        # max_slots, which ends mid-chunk; the idle stretches between the
        # bursts are still jammed.
        adversary = factory(
            CompositeAdversary,
            factory(PeriodicBurstArrivals, burst_size=20, period=400, start=200),
            factory(BurstJamming, start=100, length=30, period=400),
        )
        results = assert_rows_match_lockstep(
            run_specs(PolynomialBackoff(), adversary, [1, 2, 3], max_slots=1300)
        )
        for result in results:
            assert result.num_slots == 1300
            assert result.collector.num_jammed == 3 * 30  # bursts at 100, 500 and 900
            assert result.collector.num_jammed_active == 0  # each one between bursts

    @pytest.mark.parametrize("protocol", SEND_ONLY)
    @pytest.mark.parametrize(
        "kind", ["batch-bernoulli", "poisson-periodic", "growing-adaptive"]
    )
    def test_alone_grouped_resized_and_mega_batched(self, protocol, kind):
        alone, others, alone_passes, resized_passes = _seed_2_in_every_context(
            protocol, kind, "kernel_invocations"
        )
        assert _stepped(run_specs(protocol, _adversary(kind), [2]))[1] == "rows"
        for other in others:
            assert_same_run(other, alone)
        # The contexts made different numbers of passes around this row.
        assert alone_passes != resized_passes

    @pytest.mark.parametrize(
        "protocol",
        [
            pytest.param(LowSensingBackoff(), id="listening"),
            pytest.param(SawtoothBackoff(), id="dense"),
        ],
    )
    def test_listening_and_dense_batches_stay_in_lockstep(self, protocol):
        specs = run_specs(protocol, _adversary("batch-bernoulli"), [1, 2], max_slots=1500)
        assert _stepped(specs)[1] == "lockstep"

    def test_an_adaptive_phase_spends_its_budget_by_row(self):
        adversary = factory(
            CompositeAdversary,
            factory(BatchArrivals, 20),
            ROW_JAMMERS["adaptive-phase"](),
        )
        results = assert_rows_match_lockstep(
            run_specs(BinaryExponentialBackoff(), adversary, [1, 2], max_slots=3000)
        )
        for result in results:
            assert 0 < result.collector.num_jammed <= 10


# ---------------------------------------------------------------------------
# The slot body's contracts
# ---------------------------------------------------------------------------

#: Each vector protocol, and a second parameterisation of it that a
#: mega-batch stacks after it (its parameters become per-row columns).
KERNEL_PAIRS = [
    pytest.param(
        LowSensingBackoff(),
        LowSensingBackoff(params=LowSensingParameters(c=1.0, w_min=100.0)),
        id="low-sensing",
    ),
    pytest.param(
        DecoupledLowSensingBackoff(),
        DecoupledLowSensingBackoff(params=LowSensingParameters(c=1.0, w_min=100.0)),
        id="low-sensing-decoupled",
    ),
    pytest.param(
        BinaryExponentialBackoff(),
        BinaryExponentialBackoff(initial_window=4.0, backoff_factor=1.5, max_window=64.0),
        id="binary-exponential",
    ),
    pytest.param(
        PolynomialBackoff(), PolynomialBackoff(initial_window=3.0, degree=1.5), id="polynomial"
    ),
    pytest.param(
        FixedProbabilityProtocol(probability=0.08),
        FixedProbabilityProtocol(probability=0.3),
        id="fixed-probability",
    ),
    pytest.param(SawtoothBackoff(), SawtoothBackoff(initial_window=8.0), id="sawtooth"),
    pytest.param(
        FullSensingMultiplicativeWeights(),
        FullSensingMultiplicativeWeights(initial_probability=0.1, p_max=0.3),
        id="full-sensing-mw",
    ),
]


def _cell_state(kernel, cells, rows):
    """Every per-cell value a kernel exposes at ``cells``, as float lists."""
    shape = (kernel.replications, kernel.capacity)
    values = {
        "access": kernel.access_probability(cells, rows),
        "send": np.broadcast_to(kernel.sending_probabilities(), shape).reshape(-1)[cells],
        "share": kernel.send_share(cells, rows),
    }
    if kernel.window_matrix() is not None:
        values["window"] = kernel.window_matrix().reshape(-1)[cells]
    return {
        name: np.broadcast_to(value, cells.shape).tolist()
        for name, value in values.items()
        if value is not None
    }


class TestSlotContracts:
    @pytest.mark.parametrize("stacked", [False, True], ids=["one-group", "mega-batched"])
    @pytest.mark.parametrize("protocol, other", KERNEL_PAIRS)
    def test_on_access_returns_what_the_kernel_reads_next(self, protocol, other, stacked):
        pairs = [(protocol, 2), (other, 2)] if stacked else [(protocol, 4)]
        capacity = 12
        kernel = make_protocol_row_kernel(pairs, capacity)
        # A twin kernel hears every jammed slot as a collision.
        twin = make_protocol_row_kernel(pairs, capacity)
        cells = np.arange(4 * capacity)
        kernel.init_packets(cells, cells // capacity)
        twin.init_packets(cells, cells // capacity)
        rng = np.random.default_rng(2026)
        kept = jammed = 0
        for _ in range(60):
            cells = np.flatnonzero(rng.random(4 * capacity) < 0.4)
            rows = cells // capacity
            # Each row's outcome code: 0 empty, 1 success, 2 collision, 3
            # jammed.
            heard = rng.integers(0, 4, size=4)[rows]
            before = _cell_state(kernel, cells, rows)
            returned = kernel.on_access(cells, rows, heard)
            after = _cell_state(kernel, cells, rows)
            assert np.broadcast_to(returned, cells.shape).tolist() == after["access"]
            if kernel.listens:
                # A listener hears another packet's success (a send-only
                # kernel's accessor in a success slot is the winner).
                success = np.flatnonzero(heard == 1).tolist()
                kept += len(success)
                for name in before:
                    assert [after[name][i] for i in success] == [
                        before[name][i] for i in success
                    ], name
            # A jam is noise to every accessor, exactly as a collision.
            jammed += int(np.count_nonzero(heard == 3))
            twin.on_access(cells, rows, np.where(heard == 3, 2, heard))
            assert _cell_state(twin, cells, rows) == after
        assert kept or not kernel.listens
        assert jammed

    @pytest.mark.parametrize("stacked", [False, True], ids=["one-group", "mega-batched"])
    @pytest.mark.parametrize("protocol, other", KERNEL_PAIRS[:2])
    def test_low_sensing_keeps_the_log_of_every_stored_window(
        self, protocol, other, stacked
    ):
        pairs = [(protocol, 2), (other, 2)] if stacked else [(protocol, 4)]
        capacity = 12
        kernel = make_protocol_row_kernel(pairs, capacity)
        cells = np.arange(4 * capacity)
        kernel.init_packets(cells, cells // capacity)
        initial = kernel.window_matrix().reshape(-1).copy()
        rng = np.random.default_rng(2027)
        for _ in range(80):
            cells = np.flatnonzero(rng.random(4 * capacity) < 0.4)
            rows = cells // capacity
            kernel.on_access(cells, rows, rng.integers(0, 4, size=4)[rows])
        windows = kernel.window_matrix().reshape(-1)
        assert (windows != initial).any()
        # The next update reads each cell's ln w, bit for bit.
        logs = kernel._log_window.view(np.int64)
        assert logs.tolist() == np.log(windows).view(np.int64).tolist()

    @pytest.mark.parametrize("loop", ["rows", "lockstep"])
    @pytest.mark.parametrize("protocol", ACCESS_DRIVEN + EVERY_SLOT)
    def test_departed_cells_never_access_again(self, protocol, loop, monkeypatch):
        resolve = vector_engine._Batch.resolve
        checked = []

        def checked_resolve(batch, *args, **kwargs):
            resolve(batch, *args, **kwargs)
            departed = batch.departure_slot >= 0
            assert (batch.calendar.next_access[departed] == vector_engine._NEVER).all()
            checked.append(int(departed.sum()))

        monkeypatch.setattr(vector_engine._Batch, "resolve", checked_resolve)
        # Either loop serves every kernel.
        monkeypatch.setattr(vector_engine, "steps_rows", lambda kernel: loop == "rows")
        specs = run_specs(protocol, _adversary("batch-bernoulli"), [1, 2], max_slots=3000)
        results, stepping, _ = _stepped(specs)
        assert stepping == loop
        assert checked[-1] == sum(result.num_delivered for result in results) > 0


# ---------------------------------------------------------------------------
# The geometric gap sampler
# ---------------------------------------------------------------------------


class TestGeometricGaps:
    @pytest.mark.parametrize("p", [0.65, 1e-3, 1e-9])
    def test_chi_square_against_geometric(self, p):
        draws = 200_000
        uniforms = np.random.default_rng(20261016).random(draws)
        gaps = geometric_gaps(uniforms, np.full(draws, p), 2**62)
        # Bin edges at the distribution's twentieths: the smallest gap k
        # with P(G <= k) >= i/20; expected counts from the exact CDF.
        quantiles = np.arange(1, 20) / 20
        edges = np.unique(np.ceil(np.log1p(-quantiles) / np.log1p(-p)).astype(np.int64))
        cdf = -np.expm1(edges * np.log1p(-p))
        expected = draws * np.diff(np.concatenate([[0.0], cdf, [1.0]]))
        observed = np.bincount(np.searchsorted(edges, gaps), minlength=edges.size + 1)
        statistic = float(((observed - expected) ** 2 / expected).sum())
        df = edges.size
        # Wilson–Hilferty approximation of the chi-square 0.999 quantile.
        critical = df * (1 - 2 / (9 * df) + 3.09 * math.sqrt(2 / (9 * df))) ** 3
        assert statistic < critical

    def test_certain_access_is_always_the_next_slot(self):
        uniforms = np.random.default_rng(7).random(100_000)
        assert (geometric_gaps(uniforms, np.ones(uniforms.size), 1000) == 1).all()
        extremes = np.array([0.0, 1 - 2**-53])
        assert (geometric_gaps(extremes, 1.0, 1000) == 1).all()

    def test_vanishing_probability_never_accesses_within_the_horizon(self):
        uniforms = np.array([1e-12, 0.5, 1 - 2**-53])
        for p in (5e-324, 1e-320, 0.0):
            assert abs(np.log1p(-p)) < np.finfo(float).tiny  # underflowed
            gaps = geometric_gaps(uniforms, np.full(uniforms.size, p), 1000)
            assert gaps.dtype == np.int64
            assert gaps.tolist() == [1000, 1000, 1000]


# ---------------------------------------------------------------------------
# The per-row coin stream
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("per_entry", [1, 2])
def test_row_coins_consume_each_rows_stream_prefix(monkeypatch, per_entry):
    monkeypatch.setattr(vector_rng, "_ROW_COIN_WIDTH", 8)
    keys = (5, 6, 7)

    def row_coins():
        return RowCoins([np.random.Generator(np.random.Philox(key=key)) for key in keys])

    coins, reference = row_coins(), row_coins()
    consumed = [[] for _ in keys]
    rng = random.Random(0)
    for _ in range(60):
        # Bursts wider than the buffer force refills and regrowth.
        counts = np.array([rng.choice((0, 1, 3, 9, 20)) for _ in keys])
        rows = np.repeat(np.arange(len(keys)), counts)
        if per_entry == 1:
            values = coins.take(rows, counts)
        else:
            first, second = coins.take(rows, counts, 2)
            # The two-coin form splits one coin per entry of the doubled rows.
            pairs = reference.take(np.repeat(rows, 2), 2 * counts).reshape(-1, 2)
            assert (first.tolist(), second.tolist()) == (
                pairs[:, 0].tolist(),
                pairs[:, 1].tolist(),
            )
            values = np.column_stack([first, second]).reshape(-1)
        for row in range(len(keys)):
            consumed[row].extend(values[np.repeat(rows, per_entry) == row].tolist())
    for row, key in enumerate(keys):
        expected = np.random.Generator(np.random.Philox(key=key)).random(len(consumed[row]))
        assert consumed[row] == expected.tolist()
