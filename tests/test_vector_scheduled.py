"""Schedule-aware vector kernels: support registry, chunking, equivalence."""

from __future__ import annotations

import numpy as np

from repro.adversary.arrivals import (
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    TraceArrivals,
)
from repro.adversary.base import SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    BernoulliJamming,
    BurstJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.analysis.equivalence import verify_plan_equivalence, verify_vector_equivalence
from repro.exec import VectorBackend
from repro.experiments.plan import RunSpec, SweepPlan, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.scenarios.schedule import Phase
from repro.sim.vector.adversaries import (
    ScheduledArrivalsVector,
    ScheduledJammingVector,
    make_arrivals_kernel,
    make_jammer_kernel,
)
from repro.sim.vector.rng import VectorStreams
from repro.sim.vector.support import (
    arrival_process_support,
    jammer_support,
    vector_support,
)


def scheduled_spec(arrivals_factory, jamming_factory, seed=1, max_slots=20_000):
    return RunSpec(
        protocol=BinaryExponentialBackoff(),
        adversary=factory(CompositeAdversary, arrivals_factory, jamming_factory),
        seed=seed,
        max_slots=max_slots,
    )


def ramp_jam_factory():
    return factory(
        ScheduledJamming,
        factory(Phase, factory(BernoulliJamming, 0.6), duration=200),
        factory(Phase, factory(NoJamming)),
    )


class TestSupportRegistry:
    def test_piecewise_constant_schedule_vectorizes(self):
        spec = scheduled_spec(
            factory(
                ScheduledArrivals,
                factory(Phase, factory(BatchArrivals, 30), duration=100),
                factory(Phase, factory(NoArrivals)),
            ),
            ramp_jam_factory(),
        )
        assert spec.vector_support() is None

    def test_reason_names_offending_arrival_phase(self):
        process = ScheduledArrivals(
            Phase(BatchArrivals(5), 10), Phase(TraceArrivals([1, 2]))
        )
        reason = arrival_process_support(process)
        assert reason == (
            "arrival schedule phase 1: arrival process TraceArrivals "
            "has no vector schedule"
        )

    def test_reason_names_offending_jamming_phase(self):
        class CustomJammer(NoJamming):
            pass

        jammer = ScheduledJamming(Phase(NoJamming(), 5), Phase(CustomJammer()))
        reason = jammer_support(jammer)
        assert "jamming schedule phase 1" in reason
        assert "CustomJammer" in reason

    def test_reactive_phase_rejected(self):
        jammer = ScheduledJamming(
            Phase(NoJamming(), 5), Phase(ReactiveSuccessJammer(budget=3))
        )
        # The composite adversary reports reactivity first; the jammer
        # check itself also names the schedule.
        assert jammer_support(jammer) == "jamming schedule contains a reactive phase"
        spec = scheduled_spec(factory(BatchArrivals, 5), factory(
            ScheduledJamming,
            factory(Phase, factory(NoJamming), duration=5),
            factory(Phase, factory(ReactiveSuccessJammer, budget=3)),
        ))
        assert "reactive" in vector_support(spec)

    def test_nested_schedules_recurse(self):
        inner = ScheduledArrivals(Phase(BatchArrivals(5), 10), Phase(NoArrivals()))
        outer = ScheduledArrivals(Phase(inner, 50), Phase(NoArrivals()))
        assert arrival_process_support(outer) is None
        bad_inner = ScheduledArrivals(Phase(TraceArrivals([1])))
        bad_outer = ScheduledArrivals(Phase(bad_inner, 50), Phase(NoArrivals()))
        assert "arrival schedule phase 0: arrival schedule phase 0" in (
            arrival_process_support(bad_outer)
        )

    def test_subclassed_schedule_adapter_rejected(self):
        class CustomScheduled(ScheduledArrivals):
            pass

        process = CustomScheduled(Phase(BatchArrivals(5)))
        assert "has no vector schedule" in arrival_process_support(process)


class TestScheduledKernels:
    def test_arrival_chunks_match_scalar_adapter(self):
        process = ScheduledArrivals(
            Phase(BatchArrivals(5), 10),
            Phase(PeriodicBurstArrivals(burst_size=3, period=4), 10),
            Phase(NoArrivals()),
        )
        replications = 3
        kernel = make_arrivals_kernel(process, replications)
        assert isinstance(kernel, ScheduledArrivalsVector)
        streams = VectorStreams([1, 2, 3])
        chunk = kernel.chunk(0, 25, streams)
        from random import Random

        rng = Random(0)
        expected = [
            process.arrivals(SystemView(slot=slot, backlog=0, arrivals_so_far=0), rng)
            for slot in range(25)
        ]
        for replication in range(replications):
            assert chunk[replication].tolist() == expected
        assert process.total_planned() is None  # endless burst phase
        assert process.exhausted(20)

    def test_arrival_chunk_with_offset_start_straddles_phases(self):
        process = ScheduledArrivals(
            Phase(BatchArrivals(7, slot=2), 600),
            Phase(BatchArrivals(9), 600),  # fires at global slot 600
            Phase(NoArrivals()),
        )
        kernel = make_arrivals_kernel(process, 2)
        streams = VectorStreams([1, 2])
        chunk = kernel.chunk(590, 30, streams)
        expected = np.zeros(30, dtype=np.int64)
        expected[600 - 590] = 9
        assert (chunk == expected).all()
        assert process.total_planned() == 16

    def test_jamming_kernel_phase_transitions_and_budgets(self):
        jammer = ScheduledJamming(
            Phase(PeriodicJamming(period=2, budget=2), 6),
            Phase(NoJamming(), 4),
            Phase(BurstJamming(start=0, length=2)),
        )
        replications = 2
        kernel = make_jammer_kernel(jammer, replications)
        assert isinstance(kernel, ScheduledJammingVector)
        assert not kernel.never_jams
        streams = VectorStreams([1, 2])
        backlog = np.ones(replications, dtype=np.int64)
        running = np.ones(replications, dtype=bool)
        kernel.begin_chunk(0, 16, streams)
        decisions = [
            kernel.jam(slot, backlog, running).tolist() for slot in range(16)
        ]
        jammed_slots = [slot for slot, d in enumerate(decisions) if any(d)]
        # Periodic phase jams slots 0 and 2 (budget 2 of 3 eligible), burst
        # phase jams the first two slots of its own clock (10 and 11).
        assert jammed_slots == [0, 2, 10, 11]
        assert kernel.jams_used().tolist() == [4, 4]

    def test_all_silent_schedule_reports_never_jams(self):
        jammer = ScheduledJamming(Phase(NoJamming(), 5), Phase(NoJamming()))
        kernel = make_jammer_kernel(jammer, 2)
        assert kernel.never_jams

    def test_bernoulli_schedule_budget_respected_across_chunks(self):
        jammer = ScheduledJamming(
            Phase(BernoulliJamming(1.0, budget=3, only_active=False), 700),
            Phase(NoJamming()),
        )
        kernel = make_jammer_kernel(jammer, 1)
        streams = VectorStreams([9])
        running = np.ones(1, dtype=bool)
        backlog = np.zeros(1, dtype=np.int64)
        total = 0
        # Two engine-style chunks of 512 slots straddle the 700-slot phase.
        for start in (0, 512):
            kernel.begin_chunk(start, 512, streams)
            for slot in range(start, start + 512):
                total += int(kernel.jam(slot, backlog, running)[0])
        assert total == 3
        assert kernel.jams_used().tolist() == [3]


class TestScheduledEquivalence:
    def test_scheduled_batch_matches_serial_statistically(self):
        arrivals = factory(
            ScheduledArrivals,
            factory(Phase, factory(BatchArrivals, 60), duration=400),
            factory(Phase, factory(NoArrivals)),
        )
        specs = [
            scheduled_spec(arrivals, ramp_jam_factory(), seed=seed)
            for seed in range(1, 17)
        ]
        report = verify_vector_equivalence(specs)
        assert report.passed, report.render()

    def test_plan_equivalence_covers_only_vectorizable_groups(self):
        plan = SweepPlan()
        arrivals = factory(
            ScheduledArrivals,
            factory(Phase, factory(BatchArrivals, 40), duration=300),
            factory(Phase, factory(NoArrivals)),
        )
        vector_group = plan.add_group(
            BinaryExponentialBackoff(),
            factory(CompositeAdversary, arrivals, factory(NoJamming)),
            seeds=range(1, 13),
        )
        fallback_group = plan.add_group(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(TraceArrivals, (40,) + (0,) * 20),
            ),
            seeds=range(1, 13),
        )
        reports = verify_plan_equivalence(plan)
        assert set(reports) == {vector_group}
        assert reports[vector_group].passed, reports[vector_group].render()

    def test_vector_backend_batches_scheduled_groups(self):
        plan = SweepPlan()
        arrivals = factory(
            ScheduledArrivals,
            factory(Phase, factory(BatchArrivals, 25), duration=200),
            factory(Phase, factory(NoArrivals)),
        )
        plan.add_group(
            BinaryExponentialBackoff(),
            factory(CompositeAdversary, arrivals, ramp_jam_factory()),
            seeds=[1, 2, 3, 4],
        )
        backend = VectorBackend()
        results = plan.run(backend)
        assert backend.vectorized_jobs == 4
        assert backend.fallback_jobs == 0
        assert backend.vector_groups == 1
        assert all(result.num_arrivals == 25 for result in results.results)
