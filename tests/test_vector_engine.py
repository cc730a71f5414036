"""Tests for the lockstep batch engine (`repro.sim.vector`)."""

from __future__ import annotations

import copy

import pytest

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
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
from repro.experiments.plan import factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff
from repro.scenarios.schedule import Phase
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.vector import VectorSimulator
from repro.sim.vector.adversaries import (
    ARRIVAL_KERNELS,
    JAMMER_KERNELS,
    make_arrivals_kernel,
    make_row_jammer_kernel,
)
from repro.sim.vector.protocols import PROTOCOL_KERNELS, make_protocol_row_kernel
from repro.sim.vector.support import (
    TRACE_REASON,
    adversary_support,
    placement,
    protocol_support,
)
from tests.conftest import run_specs

ALWAYS_SEND = FixedProbabilityProtocol(probability=1.0)

#: Constructor arguments of one example instance per kernel-table key.
PROTOCOL_EXAMPLES = {
    FixedProbabilityProtocol: (),
    SlottedAloha: (),
    BinaryExponentialBackoff: (),
    PolynomialBackoff: (),
    LowSensingBackoff: (),
    DecoupledLowSensingBackoff: (),
    SawtoothBackoff: (),
    FullSensingMultiplicativeWeights: (),
}
ARRIVAL_EXAMPLES = {
    NoArrivals: (),
    BatchArrivals: (3,),
    PoissonArrivals: (0.1, 40),
    PeriodicBurstArrivals: (2, 10, 0, 2),
    AdversarialQueueingArrivals: (0.2, 10, "front", 40),
    ScheduledArrivals: (Phase(BatchArrivals(2), duration=10), Phase(NoArrivals())),
}
JAMMER_EXAMPLES = {
    NoJamming: (),
    BernoulliJamming: (0.1, 5),
    PeriodicJamming: (3,),
    BurstJamming: (2, 3),
    BudgetedRandomJamming: (3, 40),
    AdaptiveContentionJammer: (3,),
    ReactiveTargetedJammer: (3,),
    ReactiveSuccessJammer: (3,),
    ScheduledJamming: (Phase(BernoulliJamming(0.1), duration=10), Phase(NoJamming())),
}
COMPONENT_EXAMPLES = [
    pytest.param(table, cls, args, id=f"{role}-{cls.__name__}")
    for role, table, examples in (
        ("arrivals", ARRIVAL_KERNELS, ARRIVAL_EXAMPLES),
        ("jammer", JAMMER_KERNELS, JAMMER_EXAMPLES),
    )
    for cls, args in examples.items()
]

COLLECTOR_FIELDS = (
    "num_slots",
    "num_active_slots",
    "num_arrivals",
    "num_successes",
    "num_collisions",
    "num_empty_active",
    "num_jammed",
    "num_jammed_active",
    "total_sends",
    "total_listens",
    "jammed_active_slots",
)


def scalar_run(protocol, arrivals, jammer, seed, max_slots=60):
    config = SimulationConfig(
        protocol=protocol,
        adversary=CompositeAdversary(arrivals, jammer),
        seed=seed,
        max_slots=max_slots,
    )
    return Simulator(config).run()


def assert_identical(vector_result, scalar_result):
    """Exact equality of everything both engines report."""
    assert vector_result.num_slots == scalar_result.num_slots
    assert vector_result.drained == scalar_result.drained
    for field in COLLECTOR_FIELDS:
        assert getattr(vector_result.collector, field) == getattr(
            scalar_result.collector, field
        ), field
    assert vector_result.backlog_series() == scalar_result.backlog_series()
    assert vector_result.throughput_series() == scalar_result.throughput_series()
    assert packet_tuples(vector_result) == packet_tuples(scalar_result)


def packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


class TestDeterministicWorkloadsMatchScalarExactly:
    """With p=1 every decision is deterministic, so the two engines must
    agree bit-for-bit — this pins the slot semantics (injection order,
    channel rules, drain condition, metric accounting) independently of the
    random-stream layout."""

    @pytest.mark.parametrize(
        "arrivals,jammer",
        [
            (BatchArrivals(1), NoJamming()),
            (BatchArrivals(3), NoJamming()),
            (BatchArrivals(2), PeriodicJamming(period=2)),
            (BatchArrivals(2), PeriodicJamming(period=3, budget=4)),
            (BatchArrivals(2), BurstJamming(start=5, length=4)),
            (BatchArrivals(2), BurstJamming(start=2, length=2, period=6, budget=3)),
            (NoArrivals(), NoJamming()),
            (PeriodicBurstArrivals(burst_size=1, period=7, num_bursts=3), NoJamming()),
        ],
    )
    def test_bit_identical_to_scalar(self, arrivals, jammer):
        vector_result = VectorSimulator.from_specs(
            run_specs(
                ALWAYS_SEND,
                CompositeAdversary(copy.deepcopy(arrivals), copy.deepcopy(jammer)),
                [5],
                max_slots=60,
            )
        ).run()[0]
        assert_identical(vector_result, scalar_run(ALWAYS_SEND, arrivals, jammer, 5))

    def test_single_packet_succeeds_at_slot_zero(self):
        result = VectorSimulator.from_specs(
            run_specs(
                ALWAYS_SEND,
                CompositeAdversary(BatchArrivals(1), NoJamming()),
                [0],
            )
        ).run()[0]
        assert result.num_slots == 1
        assert result.drained
        assert result.packets[0].departure_slot == 0
        assert result.packets[0].sends == 1

    def test_no_arrivals_drains_immediately(self):
        result = VectorSimulator.from_specs(
            run_specs(ALWAYS_SEND, CompositeAdversary(NoArrivals(), NoJamming()), [0])
        ).run()[0]
        assert result.num_slots == 0
        assert result.drained
        assert result.packets == []
        assert result.backlog_series() == []


class TestDeterminismOfVectorRuns:
    def test_repeat_runs_bit_identical(self):
        def run_batch():
            return VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(40), BernoulliJamming(probability=0.05, budget=10)
                    ),
                    [11, 23, 47],
                )
            ).run()

        for first, second in zip(run_batch(), run_batch()):
            assert first.backlog_series() == second.backlog_series()
            assert packet_tuples(first) == packet_tuples(second)
            for field in COLLECTOR_FIELDS:
                assert getattr(first.collector, field) == getattr(
                    second.collector, field
                )

    def test_replications_are_independent_of_batch_order(self):
        # Results come back in seed order, each replication keyed by its
        # own seed's streams.
        forward = VectorSimulator.from_specs(
            run_specs(
                PolynomialBackoff(),
                CompositeAdversary(BatchArrivals(20), NoJamming()),
                [1, 2],
            )
        ).run()
        assert [r.seed for r in forward] == [1, 2]
        assert forward[0].backlog_series() != forward[1].backlog_series()

    def test_num_slots_vary_per_replication(self):
        results = VectorSimulator.from_specs(
            run_specs(
                FixedProbabilityProtocol.tuned_for(30),
                CompositeAdversary(BatchArrivals(30), NoJamming()),
                list(range(6)),
            )
        ).run()
        assert len({r.num_slots for r in results}) > 1
        assert all(r.drained for r in results)


class TestInvariants:
    @pytest.mark.parametrize(
        "protocol,arrivals,jammer",
        [
            (BinaryExponentialBackoff(), BatchArrivals(50), NoJamming()),
            (
                BinaryExponentialBackoff(max_window=64.0),
                BatchArrivals(30),
                PeriodicJamming(period=5, budget=20),
            ),
            (
                PolynomialBackoff(),
                PeriodicBurstArrivals(burst_size=5, period=40, num_bursts=4),
                BurstJamming(start=10, length=5),
            ),
            (
                FixedProbabilityProtocol(probability=0.08),
                PoissonArrivals(rate=0.03, horizon=1500),
                BernoulliJamming(probability=0.05, budget=25, only_active=True),
            ),
        ],
    )
    def test_conservation_and_consistency(self, protocol, arrivals, jammer):
        results = VectorSimulator.from_specs(
            run_specs(
                protocol,
                CompositeAdversary(arrivals, jammer),
                [3, 7, 13],
                max_slots=30_000,
            )
        ).run()
        for result in results:
            collector = result.collector
            assert collector.num_arrivals == len(result.packets)
            assert collector.num_successes == sum(
                1 for p in result.packets if p.departed
            )
            assert collector.total_sends == sum(p.sends for p in result.packets)
            assert collector.total_listens == 0
            assert collector.backlog == collector.num_arrivals - collector.num_successes
            counts = result.slot_counts()
            assert len(counts.backlog) == result.num_slots
            if result.num_slots:
                assert counts.arrivals[-1] == collector.num_arrivals
                assert counts.successes[-1] == collector.num_successes
                assert counts.active_slots[-1] == collector.num_active_slots
                assert len(collector.jammed_active_slots) == collector.num_jammed_active
            budget = getattr(jammer, "budget", None)
            if budget is not None:
                assert collector.num_jammed <= budget
            for packet in result.packets:
                if packet.departed:
                    assert packet.departure_slot >= packet.arrival_slot
                    assert packet.sends >= 1

    def test_capacity_growth_is_deterministic(self):
        # Poisson arrivals exceed the initial capacity guess and force the
        # state arrays to grow mid-run; growth must not break determinism.
        def run_batch():
            return VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        PoissonArrivals(rate=0.2, horizon=1200), NoJamming()
                    ),
                    [1, 2, 3],
                    max_slots=10_000,
                )
            ).run()

        first, second = run_batch(), run_batch()
        totals = [r.num_arrivals for r in first]
        assert max(totals) > 64  # the initial open-ended capacity guess
        for a, b in zip(first, second):
            assert packet_tuples(a) == packet_tuples(b)

    def test_max_slots_cap_without_drain(self):
        results = VectorSimulator.from_specs(
            run_specs(
                ALWAYS_SEND,
                CompositeAdversary(BatchArrivals(2), NoJamming()),
                [1],
                max_slots=25,
            )
        ).run()
        assert results[0].num_slots == 25
        assert not results[0].drained
        assert results[0].collector.num_collisions == 25

    @pytest.mark.parametrize(
        "protocol",
        [BinaryExponentialBackoff(), LowSensingBackoff(), SawtoothBackoff()],
        ids=["rows", "lockstep", "dense"],
    )
    def test_drained_reads_the_exhaustion_slot_as_a_python_bool(self, protocol):
        # Arrivals run to slot 300: a run cut before it is not drained,
        # whatever its backlog.  The flag is a Python bool, as the scalar
        # engine's is, so the result pickles to the same format.
        adversary = CompositeAdversary(
            PoissonArrivals(rate=0.02, horizon=300), NoJamming()
        )
        cut, full = (
            VectorSimulator.from_specs(
                run_specs(protocol, adversary, [1, 2], max_slots=max_slots)
            ).run()
            for max_slots in (250, 20_000)
        )
        assert [(r.num_slots, r.drained) for r in cut] == [(250, False)] * 2
        for result in full:
            assert result.drained is True and result.num_slots >= 300

    def test_open_ended_arrivals_run_to_cap(self):
        # Bursts without a count never exhaust: the run goes on past each
        # drained stretch to max_slots, and is not drained there.
        results = VectorSimulator.from_specs(
            run_specs(
                ALWAYS_SEND,
                CompositeAdversary(
                    PeriodicBurstArrivals(burst_size=1, period=7), NoJamming()
                ),
                [1],
                max_slots=30,
            )
        ).run()
        assert results[0].num_slots == 30
        assert not results[0].drained
        assert results[0].num_delivered == 5  # arrivals at 0, 7, 14, 21, 28

    @pytest.mark.parametrize("engine", ["serial", "vector"])
    @pytest.mark.parametrize(
        "protocol",
        [BinaryExponentialBackoff(), LowSensingBackoff(), SawtoothBackoff()],
        ids=["rows", "lockstep", "every-slot"],
    )
    def test_a_run_stops_only_once_drained_and_exhausted(self, engine, protocol):
        # Bursts at 0, 300 and 600: the system empties before each later
        # burst, which does not stop the run, and it stops in the slot after
        # the last departure.
        specs = run_specs(
            protocol,
            factory(
                CompositeAdversary,
                factory(PeriodicBurstArrivals, burst_size=2, period=300, num_bursts=3),
            ),
            [1, 2],
            max_slots=20_000,
        )
        if engine == "vector":
            results = VectorSimulator.from_specs(specs).run()
        else:
            results = [Simulator(spec.build_config()).run() for spec in specs]
        for result in results:
            departures = [p.departure_slot for p in result.packets]
            assert result.num_arrivals == result.num_delivered == 6
            assert result.drained is True
            assert result.num_slots == max(departures) + 1 > 600
            for burst in (300, 600):
                earlier = [p.departure_slot for p in result.packets if p.arrival_slot < burst]
                assert max(earlier) < burst


def _bare_subclass(cls):
    """A subclass that overrides nothing: exact-type tables still refuse it."""
    return type(f"Bare{cls.__name__}", (cls,), {})


def _adversary_with(table, component):
    """An adversary that puts ``component`` in the role its table serves."""
    if table is ARRIVAL_KERNELS:
        return CompositeAdversary(component, NoJamming())
    return CompositeAdversary(BatchArrivals(2), component)


def _placement_reason(protocol, adversary):
    return placement(run_specs(protocol, adversary, [1])[0]).reason


class TestValidationAndSupport:
    def test_rejects_empty_seed_list(self):
        with pytest.raises(ValueError, match="at least one spec"):
            VectorSimulator.from_specs(
                run_specs(
                    ALWAYS_SEND,
                    CompositeAdversary(BatchArrivals(1), NoJamming()),
                    [],
                )
            )

    def test_rejects_unsupported_protocol(self):
        class CustomProtocol(BinaryExponentialBackoff):
            """Subclass without a registered kernel: must stay scalar."""

        with pytest.raises(ValueError, match="cannot vectorize"):
            VectorSimulator.from_specs(
                run_specs(
                    CustomProtocol(),
                    CompositeAdversary(BatchArrivals(1), NoJamming()),
                    [1],
                )
            )

    def test_protocol_support_flags(self):
        assert protocol_support(BinaryExponentialBackoff()) is None
        assert protocol_support(PolynomialBackoff()) is None
        assert protocol_support(FixedProbabilityProtocol()) is None
        # The sensing tier has kernels since the sensing-vector work.
        assert protocol_support(LowSensingBackoff()) is None
        assert protocol_support(DecoupledLowSensingBackoff()) is None
        assert protocol_support(SawtoothBackoff()) is None
        assert protocol_support(FullSensingMultiplicativeWeights()) is None

    # The kernel tables are the registry: every key vectorizes and builds
    # its kernel, and a bare subclass of any key falls back, named.
    def test_examples_cover_exactly_the_kernel_tables(self):
        assert set(PROTOCOL_EXAMPLES) == set(PROTOCOL_KERNELS)
        assert set(ARRIVAL_EXAMPLES) == set(ARRIVAL_KERNELS)
        assert set(JAMMER_EXAMPLES) == set(JAMMER_KERNELS)

    @pytest.mark.parametrize("cls", PROTOCOL_EXAMPLES, ids=lambda cls: cls.__name__)
    def test_subclass_of_supported_protocol_is_rejected(self, cls):
        adversary = CompositeAdversary(BatchArrivals(2), NoJamming())
        protocol = cls(*PROTOCOL_EXAMPLES[cls])
        assert _placement_reason(protocol, adversary) is None
        assert make_protocol_row_kernel([(protocol, 2)], 4).replications == 2
        bare = _bare_subclass(cls)(*PROTOCOL_EXAMPLES[cls])
        reason = _placement_reason(bare, adversary)
        assert reason is not None and f"Bare{cls.__name__}" in reason
        with pytest.raises(TypeError, match=f"Bare{cls.__name__}"):
            make_protocol_row_kernel([(bare, 2)], 4)

    @pytest.mark.parametrize("table, cls, args", COMPONENT_EXAMPLES)
    def test_adversary_support(self, table, cls, args):
        component = cls(*args)
        assert adversary_support(_adversary_with(table, component)) is None
        if table is ARRIVAL_KERNELS:
            assert make_arrivals_kernel(component, 2).replications == 2
        else:
            assert make_row_jammer_kernel([(component, 2)]).replications == 2
        bare = _bare_subclass(cls)(*args)
        reason = _placement_reason(
            BinaryExponentialBackoff(), _adversary_with(table, bare)
        )
        assert reason is not None and f"Bare{cls.__name__}" in reason

    def test_from_specs_rejects_heterogeneous_batches(self):
        from repro.experiments.plan import RunSpec, factory

        adversary = factory(CompositeAdversary, factory(BatchArrivals, 5))
        mixed = [
            RunSpec(protocol=BinaryExponentialBackoff(), adversary=adversary, seed=1),
            RunSpec(protocol=PolynomialBackoff(), adversary=adversary, seed=2),
        ]
        with pytest.raises(ValueError, match="protocol class"):
            VectorSimulator.from_specs(mixed)

    def test_potential_and_dynamics_groups_share_a_batch_key(self):
        from repro.experiments.plan import RunSpec, factory

        def place(protocol, arrivals, **options):
            return placement(
                RunSpec(
                    protocol=protocol,
                    adversary=factory(CompositeAdversary, arrivals),
                    seed=1,
                    **options,
                )
            )

        def batch_key(protocol, arrivals, **options):
            placed = place(protocol, arrivals, **options)
            assert placed.reason is None
            return placed.batch

        batch = factory(BatchArrivals, 5)
        poisson = factory(PoissonArrivals, 0.1, 40)
        outputs = dict(collect_potential=True, dynamics_window=64)
        key = batch_key(ALWAYS_SEND, batch, **outputs)
        # The key holds the batch's engine options, which the engine reads.
        assert key.options == (200_000, True, 64)
        # Other parameters and another arrival schedule: the same launch.
        other = FixedProbabilityProtocol(probability=0.5)
        assert batch_key(other, poisson, **outputs) == key
        # Each output is an engine option of the key.
        assert batch_key(ALWAYS_SEND, batch) != key
        assert batch_key(ALWAYS_SEND, batch, dynamics_window=64) != key
        assert batch_key(ALWAYS_SEND, batch, collect_potential=True) != key
        # An execution trace is not a vector output: the spec runs serially.
        traced = place(ALWAYS_SEND, batch, collect_trace=True, **outputs)
        assert traced == (TRACE_REASON, None, None)
        with pytest.raises(ValueError, match=TRACE_REASON):
            VectorSimulator.from_specs(
                run_specs(ALWAYS_SEND, batch, [1, 2], collect_trace=True)
            )


class TestStatisticalAgreementSpotChecks:
    """Cheap distribution-level sanity checks; the rigorous comparison
    lives in test_vector_equivalence.py."""

    def test_beb_mean_accesses_close_to_scalar(self):
        seeds = list(range(8))
        vector_results = VectorSimulator.from_specs(
            run_specs(
                BinaryExponentialBackoff(),
                CompositeAdversary(BatchArrivals(50), NoJamming()),
                seeds,
            )
        ).run()
        scalar_results = [
            scalar_run(
                BinaryExponentialBackoff(),
                BatchArrivals(50),
                NoJamming(),
                seed,
                max_slots=200_000,
            )
            for seed in seeds
        ]
        vector_mean = sum(
            r.energy_statistics().mean_accesses for r in vector_results
        ) / len(seeds)
        scalar_mean = sum(
            r.energy_statistics().mean_accesses for r in scalar_results
        ) / len(seeds)
        assert vector_mean == pytest.approx(scalar_mean, rel=0.2)

    def test_all_packets_delivered_on_batch(self):
        results = VectorSimulator.from_specs(
            run_specs(
                BinaryExponentialBackoff(),
                CompositeAdversary(BatchArrivals(60), NoJamming()),
                [1, 2],
            )
        ).run()
        for result in results:
            assert result.drained
            assert all(p.departed for p in result.packets)
