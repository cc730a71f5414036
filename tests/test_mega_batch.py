"""Tests for cross-config mega-batching.

The headline contract: stacking compatible replication groups into one
ragged lockstep batch (``VectorSimulator.from_specs`` on the specs of
several groups that share a batch key, as ``VectorBackend.run`` does) is a
pure wall-clock optimisation — results are **bit-identical** to running
each group through its own per-group batch (one ``VectorBackend.run`` call
per group), because every vector result is a function of its (spec, seed)
alone.  The batch key has no arrival part and no exclusions, so groups
whose arrival schedules differ, and groups that collect Φ, stack too.
"""

from __future__ import annotations

import pytest

from repro.adversary.arrivals import (
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    BernoulliJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
)
from repro.core.low_sensing import LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.exec import SerialBackend, VectorBackend
from repro.experiments.plan import SweepPlan, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff
from repro.scenarios.catalog import get_scenario
from repro.sim.vector import VectorSimulator
from tests.conftest import run_specs


def batch_adversary(n, jammer=None):
    parts = [factory(BatchArrivals, n)]
    if jammer is not None:
        parts.append(jammer)
    return factory(CompositeAdversary, *parts)


def identical(a, b):
    return (
        a.backlog_series() == b.backlog_series()
        and a.collector.total_listens == b.collector.total_listens
        and a.num_slots == b.num_slots
        and a.drained == b.drained
        and [(p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens) for p in a.packets]
        == [(p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens) for p in b.packets]
        and (a.potential is None) == (b.potential is None)
        and (
            a.potential is None
            or list(a.potential.samples) == list(b.potential.samples)
        )
        and a.dynamics == b.dynamics
    )


def flatten(spec_groups):
    return [spec for specs in spec_groups for spec in specs]


def run_per_group(plan, backend):
    """Per-group execution: one ``backend.run`` call per plan group."""
    results = []
    for group in plan.groups:
        results += backend.run([plan.specs[index] for index in group.spec_indices])
    return results


def assert_mega_matches_per_group(spec_groups):
    simulator = VectorSimulator.from_specs(flatten(spec_groups))
    assert simulator.num_groups == len(spec_groups)
    mega = simulator.run()
    flat = iter(mega)
    for specs in spec_groups:
        solo = VectorSimulator.from_specs(specs).run()
        for expected in solo:
            got = next(flat)
            assert identical(got, expected)
    # The backend stacks the same groups into one launch.
    backend = VectorBackend()
    backend.run(flatten(spec_groups))
    assert (backend.vector_groups, backend.mega_batches) == (len(spec_groups), 1)
    return mega


#: One kernel family per loop: a send-only kernel (the row loop),
#: LOW-SENSING (lockstep) and Sawtooth (lockstep, every slot), each with
#: per-group parameters.
PROTOCOL_FAMILIES = {
    "send-only": lambda i: BinaryExponentialBackoff(initial_window=2.0 + 2 * i),
    "low-sensing": lambda i: LowSensingBackoff(
        params=LowSensingParameters(w_min=32.0 + 16 * i)
    ),
    "sawtooth": lambda i: SawtoothBackoff(initial_window=2 + i),
}


def _stacked_outputs(family):
    """Φ groups of one kernel family with different parameters."""
    return [
        run_specs(
            PROTOCOL_FAMILIES[family](i),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 10 + 4 * i),
                factory(ReactiveSuccessJammer, budget=2 + i),
            ),
            [1, 2],
            max_slots=3_000,
            collect_potential=True,
        )
        for i in range(3)
    ]


def _mixed_arrivals(family):
    """Groups of one protocol and jammer whose arrival schedules differ."""
    schedules = [
        factory(CompositeAdversary, factory(BatchArrivals, 12), factory(NoJamming)),
        factory(
            CompositeAdversary,
            factory(PoissonArrivals, rate=0.03, horizon=600),
            factory(NoJamming),
        ),
        factory(
            CompositeAdversary,
            factory(PeriodicBurstArrivals, burst_size=4, period=200, num_bursts=3),
            factory(NoJamming),
        ),
        get_scenario("ramp-arrivals").adversary_factory(),
    ]
    protocol = PROTOCOL_FAMILIES[family](0)
    return [
        run_specs(protocol, adversary, [1, 2], max_slots=1_500)
        for adversary in schedules
    ]


STACKED_CASES = [
    pytest.param(build, family, id=f"{kind}-{family}")
    for kind, build in (
        ("potential", _stacked_outputs),
        ("mixed-arrivals", _mixed_arrivals),
    )
    for family in PROTOCOL_FAMILIES
]


class TestBitIdentityWithPerGroupExecution:
    @pytest.mark.parametrize("build, family", STACKED_CASES)
    def test_stacks_with_every_output_and_arrival_schedule(self, build, family):
        results = assert_mega_matches_per_group(build(family))
        assert any(result.num_delivered for result in results)

    @pytest.mark.parametrize("family", PROTOCOL_FAMILIES)
    def test_a_group_with_nothing_to_arrive_ends_at_slot_zero(self, family):
        # Its rows are exhausted from slot 0: they end there, drained, while
        # the group stacked beside them runs.
        protocol = PROTOCOL_FAMILIES[family](0)
        spec_groups = [
            run_specs(protocol, factory(CompositeAdversary, factory(NoArrivals)), [1, 2]),
            run_specs(protocol, batch_adversary(12), [1, 2]),
        ]
        mega = assert_mega_matches_per_group(spec_groups)
        assert [(r.num_slots, r.drained) for r in mega[:2]] == [(0, True)] * 2
        assert all(r.num_slots > 0 and r.drained for r in mega[2:])

    def test_send_only_protocol_param_grid(self):
        spec_groups = [
            run_specs(BinaryExponentialBackoff(initial_window=2.0 + i), batch_adversary(20 + 3 * i), [1, 2, 3])
            for i in range(6)
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_interleaved_groups_come_back_in_input_order(self):
        # Three groups' specs interleaved seed by seed: the batch regroups
        # them, and every result lands at its spec's input position.
        spec_groups = [
            run_specs(BinaryExponentialBackoff(initial_window=w), batch_adversary(n), [1, 2, 3])
            for w, n in [(2.0, 12), (4.0, 20), (8.0, 7)]
        ]
        interleaved = [spec for specs in zip(*spec_groups) for spec in specs]
        simulator = VectorSimulator.from_specs(interleaved)
        assert simulator.num_groups == 3
        solo = {}
        for specs in spec_groups:
            for spec, result in zip(specs, VectorSimulator.from_specs(specs).run()):
                solo[id(spec)] = result
        for spec, got in zip(interleaved, simulator.run()):
            expected = solo[id(spec)]
            assert got.seed == spec.seed
            assert got.config_description == expected.config_description
            assert identical(got, expected)

    def test_sensing_protocol_param_grid(self):
        spec_groups = [
            run_specs(
                LowSensingBackoff(params=LowSensingParameters(c=c, w_min=w_min)),
                batch_adversary(n),
                [1, 2],
            )
            for c, w_min, n in [(0.5, 32.0, 20), (1.0, 100.0, 25), (1.4, 256.0, 30)]
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_jammer_params_promoted_per_row(self):
        spec_groups = [
            run_specs(
                PolynomialBackoff(),
                batch_adversary(15, factory(PeriodicJamming, period=p, budget=b)),
                [5, 6],
                max_slots=4_000,
            )
            for p, b in [(3, 10), (5, 20), (11, None)]
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_random_adversaries_keep_their_streams(self):
        # Poisson arrivals + Bernoulli jamming both consume per-replication
        # adversary randomness; stacking must not shift any stream.
        spec_groups = [
            run_specs(
                BinaryExponentialBackoff(),
                factory(
                    CompositeAdversary,
                    factory(PoissonArrivals, rate=rate, horizon=700),
                    factory(BernoulliJamming, probability=jam, budget=9),
                ),
                [7, 8],
                max_slots=5_000,
            )
            for rate, jam in [(0.02, 0.02), (0.05, 0.05), (0.08, 0.01)]
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_ragged_drain_times(self):
        # Wildly different batch sizes: early groups drain long before the
        # last one, so their rows must stop exactly where a solo run stops.
        spec_groups = [
            run_specs(BinaryExponentialBackoff(), batch_adversary(n), [1, 2])
            for n in (2, 10, 80)
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_identical_schedules_stack(self):
        # Same piecewise jamming schedule across groups (differing protocol
        # parameters): stacks, and every phase kernel keeps its streams.
        from repro.adversary.scheduled import ScheduledJamming
        from repro.scenarios.schedule import Phase

        def scheduled_jammer():
            return factory(
                ScheduledJamming,
                factory(
                    Phase, factory(BernoulliJamming, 0.2, budget=10), duration=40
                ),
                factory(Phase, factory(NoJamming), duration=40),
                factory(Phase, factory(BernoulliJamming, 0.05, budget=5)),
            )

        spec_groups = [
            run_specs(
                LowSensingBackoff(params=LowSensingParameters(w_min=w_min)),
                factory(
                    CompositeAdversary, factory(BatchArrivals, 15), scheduled_jammer()
                ),
                [1, 2],
                max_slots=6_000,
            )
            for w_min in (32.0, 64.0)
        ]
        assert_mega_matches_per_group(spec_groups)

    def test_differing_schedules_refuse_to_stack(self):
        from repro.adversary.scheduled import ScheduledJamming
        from repro.scenarios.schedule import Phase

        def jammer(probability):
            return factory(
                ScheduledJamming,
                factory(Phase, factory(BernoulliJamming, probability)),
            )

        spec_groups = [
            run_specs(
                LowSensingBackoff(),
                factory(CompositeAdversary, factory(BatchArrivals, 10), jammer(p)),
                [1],
            )
            for p in (0.1, 0.2)
        ]
        with pytest.raises(ValueError, match="schedule"):
            VectorSimulator.from_specs(flatten(spec_groups))
        # The backend never attempts it: distinct schedules split launches.
        plan = SweepPlan()
        for specs in spec_groups:
            plan.add_group(specs[0].protocol, specs[0].adversary, [1])
        backend = VectorBackend()
        plan.run(backend)
        assert backend.mega_batches == 2

    def test_capacity_growth_stays_per_group(self):
        # One group's Poisson overflow grows *its* capacity (and coin
        # geometry); the small group alongside must be unaffected.
        spec_groups = [
            run_specs(
                BinaryExponentialBackoff(),
                factory(CompositeAdversary, factory(PoissonArrivals, rate=0.2, horizon=900)),
                [1, 2],
                max_slots=8_000,
            ),
            run_specs(
                BinaryExponentialBackoff(initial_window=4.0),
                factory(CompositeAdversary, factory(PoissonArrivals, rate=0.01, horizon=900)),
                [3, 4],
                max_slots=8_000,
            ),
        ]
        assert_mega_matches_per_group(spec_groups)


class TestFromSpecGroupsValidation:
    def test_rejects_mixed_protocol_families(self):
        with pytest.raises(ValueError, match="protocol class"):
            VectorSimulator.from_specs(
                run_specs(BinaryExponentialBackoff(), batch_adversary(5), [1])
                + run_specs(PolynomialBackoff(), batch_adversary(5), [1])
            )

    def test_rejects_mixed_jammer_families(self):
        with pytest.raises(ValueError, match="jammer class"):
            VectorSimulator.from_specs(
                run_specs(BinaryExponentialBackoff(), batch_adversary(5), [1])
                + run_specs(
                    BinaryExponentialBackoff(),
                    batch_adversary(5, factory(PeriodicJamming, period=3)),
                    [1],
                )
            )

    def test_rejects_mixed_engine_options(self):
        with pytest.raises(ValueError, match="max_slots"):
            VectorSimulator.from_specs(
                run_specs(BinaryExponentialBackoff(), batch_adversary(5), [1], max_slots=1_000)
                + run_specs(BinaryExponentialBackoff(), batch_adversary(5), [1], max_slots=2_000)
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one spec"):
            VectorSimulator.from_specs([])


class TestBackendMegaBatching:
    def test_compatible_groups_collapse_to_one_launch(self):
        plan = SweepPlan()
        for i in range(8):
            plan.add_group(
                BinaryExponentialBackoff(initial_window=2.0 + i),
                batch_adversary(10 + i),
                [1, 2],
                columns={"i": i},
            )
        backend = VectorBackend()
        plan.run(backend)
        assert backend.vector_groups == 8
        assert backend.mega_batches == 1
        assert backend.vectorized_jobs == 16

    def test_mega_batch_off_is_one_launch_per_group(self):
        plan = SweepPlan()
        for i in range(4):
            plan.add_group(
                BinaryExponentialBackoff(initial_window=2.0 + i),
                batch_adversary(10),
                [1, 2],
                columns={"i": i},
            )
        backend = VectorBackend()
        run_per_group(plan, backend)
        assert backend.vector_groups == 4
        assert backend.mega_batches == 4

    def test_incompatible_families_split_launches(self):
        plan = SweepPlan()
        plan.add_group(BinaryExponentialBackoff(), batch_adversary(10), [1, 2])
        plan.add_group(FullSensingMultiplicativeWeights(), batch_adversary(10), [1, 2])
        plan.add_group(
            BinaryExponentialBackoff(),
            batch_adversary(10, factory(PeriodicJamming, period=3)),
            [1, 2],
        )
        backend = VectorBackend()
        plan.run(backend)
        assert backend.vector_groups == 3
        assert backend.mega_batches == 3

    def test_backend_results_identical_with_and_without_mega(self):
        plan = SweepPlan()
        for i in range(5):
            plan.add_group(
                LowSensingBackoff(params=LowSensingParameters(w_min=32.0 + 8 * i)),
                batch_adversary(12 + i),
                [1, 2],
                columns={"i": i},
            )
        mega = plan.run(VectorBackend()).results
        per_group = run_per_group(plan, VectorBackend())
        assert len(mega) == len(per_group) == 10
        for a, b in zip(mega, per_group):
            assert identical(a, b)

    def test_mixed_engine_options_keep_job_order(self):
        plan = SweepPlan()
        plan.add_group(BinaryExponentialBackoff(), batch_adversary(10), [1, 2])
        plan.add_group(
            BinaryExponentialBackoff(initial_window=6.0), batch_adversary(10), [3]
        )
        plan.add_group(
            BinaryExponentialBackoff(),
            batch_adversary(10),
            [4],
            collect_potential=True,  # other engine options: another launch
        )
        backend = VectorBackend()
        results = plan.run(backend).results
        assert [r.seed for r in results] == [1, 2, 3, 4]
        # The two plain BEB groups stack; the Φ-collecting group differs in
        # its engine options, so it gets its own launch.
        assert backend.mega_batches == 2
        assert backend.fallback_jobs == 0
        assert results[3].potential is not None

    def test_describe_reports_launch_counters(self):
        backend = VectorBackend()
        description = backend.describe()
        assert description["mega_batches"] == 0

