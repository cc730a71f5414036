"""Tests for `VectorBackend`: grouping, ordering, and the serial fallback.

The vector/scalar boundary contract: every configuration the vector engine
does not support (custom protocol/adversary subclasses, the backlog-coupled
adversary, replayed arrival traces, execution traces) must cleanly fall
back to the serial engine and produce results *identical* to
`SerialBackend` — it is literally the same code path, so this is an
equality, not a statistical, assertion.  The sensing protocols, the
reactive and adaptive jammers and the potential output all vectorize, so
the fallback set here is the unregistered remainder plus traced specs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.adversary.adaptive import BacklogCouplingAdversary
from repro.adversary.arrivals import BatchArrivals, PoissonArrivals, TraceArrivals
from repro.adversary.base import Adversary
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    NoJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.core.low_sensing import LowSensingBackoff
from repro.exec import (
    BACKEND_NAMES,
    SCALAR_LAYOUT,
    SerialBackend,
    VectorBackend,
    make_backend,
)
from repro.experiments.plan import RunSpec, SweepPlan, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.sawtooth import SawtoothBackoff
from repro.sim.config import SimulationConfig
from repro.sim.vector import RESULT_LAYOUT
from repro.sim.vector.support import TRACE_REASON


def batch_adversary(n):
    return factory(CompositeAdversary, factory(BatchArrivals, n))


def spec(protocol, seed, *, adversary=None, **kwargs):
    return RunSpec(
        protocol=protocol,
        adversary=adversary or batch_adversary(20),
        seed=seed,
        **kwargs,
    )


def summary_tuple(result):
    summary = result.summary()
    return (
        result.seed,
        result.num_slots,
        result.drained,
        summary.num_arrivals,
        summary.num_delivered,
        summary.throughput,
        summary.mean_accesses,
        summary.max_backlog,
    )


class TweakedJammer(NoJamming):
    """Subclass without a registered kernel: must stay scalar."""


class CustomAdversary(Adversary):
    """Not a CompositeAdversary: must stay scalar."""

    def arrivals(self, view, rng):
        return 1 if view.slot == 0 else 0

    def jam(self, view, rng):
        return False


#: (spec, a fragment of its fallback reason)
UNSUPPORTED_SPECS = [
    pytest.param(
        spec(
            BinaryExponentialBackoff(),
            4,
            adversary=factory(
                CompositeAdversary, factory(TraceArrivals, (3, 0, 2, 1))
            ),
        ),
        "TraceArrivals has no vector schedule",
        id="trace-arrivals",
    ),
    pytest.param(
        spec(
            BinaryExponentialBackoff(),
            5,
            adversary=factory(
                CompositeAdversary,
                factory(BatchArrivals, 10),
                factory(TweakedJammer),
            ),
        ),
        "TweakedJammer has no vector kernel",
        id="unregistered-jammer-subclass",
    ),
    pytest.param(
        spec(BinaryExponentialBackoff(), 6, adversary=factory(CustomAdversary)),
        "custom adversaries run on the scalar engine",
        id="custom-adversary",
    ),
    # Its injections read the live backlog, so it is a custom adversary
    # to the vector engine.
    pytest.param(
        spec(
            LowSensingBackoff(),
            7,
            adversary=factory(
                BacklogCouplingAdversary,
                target_backlog=3,
                total_packets=40,
                jam_budget=10,
            ),
        ),
        "custom adversaries run on the scalar engine",
        id="backlog-coupling",
    ),
    # No workload collects execution traces, so the scalar engine keeps
    # the one trace implementation; Φ rides along to the same fallback.
    pytest.param(
        spec(BinaryExponentialBackoff(), 8, collect_trace=True, collect_potential=True),
        TRACE_REASON,
        id="trace-enabled",
    ),
]

NEWLY_SUPPORTED_SPECS = [
    pytest.param(
        spec(
            BinaryExponentialBackoff(),
            4,
            adversary=factory(
                CompositeAdversary,
                factory(BatchArrivals, 10),
                factory(ReactiveTargetedJammer, budget=5, target_index=0),
            ),
        ),
        id="reactive-targeted",
    ),
    pytest.param(
        spec(
            BinaryExponentialBackoff(),
            5,
            adversary=factory(
                CompositeAdversary,
                factory(BatchArrivals, 10),
                factory(ReactiveSuccessJammer, budget=3),
            ),
        ),
        id="reactive-success",
    ),
    pytest.param(
        spec(
            BinaryExponentialBackoff(),
            6,
            adversary=factory(
                CompositeAdversary,
                factory(BatchArrivals, 10),
                factory(AdaptiveContentionJammer, budget=5),
            ),
        ),
        id="adaptive-contention",
    ),
    pytest.param(
        spec(BinaryExponentialBackoff(), 9, collect_potential=True),
        id="potential-enabled",
    ),
]


class TestFallbackBoundary:
    @pytest.mark.parametrize("unsupported, reason", UNSUPPORTED_SPECS)
    def test_unsupported_spec_declares_a_reason(self, unsupported, reason):
        assert reason in unsupported.vector_support()

    def test_sensing_protocols_no_longer_fall_back(self):
        for protocol in (
            SawtoothBackoff(),
            FullSensingMultiplicativeWeights(),
            LowSensingBackoff(),
        ):
            assert spec(protocol, 1).vector_support() is None

    @pytest.mark.parametrize("supported", NEWLY_SUPPORTED_SPECS)
    def test_feedback_coupled_specs_no_longer_fall_back(self, supported):
        assert supported.vector_support() is None

    @pytest.mark.parametrize("supported", NEWLY_SUPPORTED_SPECS)
    def test_feedback_coupled_specs_run_on_the_vector_path(self, supported):
        backend = VectorBackend()
        backend.run([supported])
        assert backend.vectorized_jobs == 1
        assert backend.fallback_jobs == 0

    @pytest.mark.parametrize("unsupported, reason", UNSUPPORTED_SPECS)
    def test_unsupported_spec_identical_to_serial(self, unsupported, reason):
        backend = VectorBackend()
        vector_result = backend.run([unsupported])[0]
        serial_result = SerialBackend().run([unsupported])[0]
        assert vector_result.packets == serial_result.packets
        if unsupported.collect_trace:
            assert vector_result.trace.records == serial_result.trace.records
            assert vector_result.potential.samples == serial_result.potential.samples
        # Bit for bit: the fallback is the serial engine's own code path.
        assert pickle.dumps(vector_result) == pickle.dumps(serial_result)
        assert backend.result_layout(unsupported) == SCALAR_LAYOUT
        assert backend.fallback_jobs == 1
        assert backend.vectorized_jobs == 0

    def test_opaque_jobs_always_fall_back(self):
        class OpaqueJob:
            """A job that only builds its configuration."""

            def build_config(self):
                return SimulationConfig(
                    protocol=BinaryExponentialBackoff(),
                    adversary=CompositeAdversary(BatchArrivals(10), NoJamming()),
                    seed=1,
                )

        backend = VectorBackend()
        results = backend.run([OpaqueJob()])
        assert backend.fallback_jobs == 1
        assert results[0].num_arrivals == 10


class TestGroupingAndOrdering:
    def test_results_in_job_order_for_mixed_batches(self):
        jobs = [
            spec(LowSensingBackoff(), 1),
            spec(BinaryExponentialBackoff(), 2),
            spec(LowSensingBackoff(), 3),
            spec(BinaryExponentialBackoff(), 4, collect_trace=True),
            spec(FixedProbabilityProtocol.tuned_for(20), 5),
        ]
        backend = VectorBackend()
        results = backend.run(jobs)
        assert [r.seed for r in results] == [1, 2, 3, 4, 5]
        assert [r.protocol_name for r in results] == [
            "low-sensing",
            "binary-exponential",
            "low-sensing",
            "binary-exponential",
            "fixed-probability",
        ]
        # The trace-enabled BEB job runs on the serial fallback, in its
        # place.  Low-sensing seeds 1 and 3 share a lockstep group.
        assert backend.vectorized_jobs == 4
        assert backend.fallback_jobs == 1
        assert backend.vector_groups == 3
        assert results[3].trace is not None

    def test_same_config_many_seeds_is_one_group(self):
        jobs = [spec(BinaryExponentialBackoff(), seed) for seed in range(6)]
        backend = VectorBackend()
        backend.run(jobs)
        assert backend.vector_groups == 1
        assert backend.vectorized_jobs == 6

    def test_differing_max_slots_split_groups(self):
        jobs = [
            spec(BinaryExponentialBackoff(), 1, max_slots=1_000),
            spec(BinaryExponentialBackoff(), 2, max_slots=2_000),
        ]
        backend = VectorBackend()
        backend.run(jobs)
        assert backend.vector_groups == 2

    def test_empty_job_list(self):
        assert VectorBackend().run([]) == []

    def test_repeat_runs_bit_identical(self):
        jobs = [spec(BinaryExponentialBackoff(), seed) for seed in (11, 23)]
        first = VectorBackend().run(jobs)
        second = VectorBackend().run(jobs)
        for a, b in zip(first, second):
            assert a.backlog_series() == b.backlog_series()
            assert summary_tuple(a) == summary_tuple(b)


class TestPlanIntegration:
    def test_sweep_plan_runs_on_vector_backend(self):
        reactive = factory(
            CompositeAdversary,
            factory(BatchArrivals, 20),
            factory(ReactiveSuccessJammer, budget=3),
        )
        plan = SweepPlan()
        plan.add_group(
            BinaryExponentialBackoff(), reactive, seeds=[1, 2, 3], columns={"n": 20}
        )
        plan.add_group(
            LowSensingBackoff(), batch_adversary(20), seeds=[1, 2, 3], columns={"n": 20}
        )
        vector_rows = plan.run(VectorBackend()).group_rows()
        serial_rows = plan.run(SerialBackend()).group_rows()
        assert len(vector_rows) == 2
        # Both groups vectorize (the reactive group rides the lockstep
        # feedback loop): same workload, different coins.
        for vector_row, serial_row in zip(vector_rows, serial_rows):
            assert vector_row["arrivals"] == serial_row["arrivals"]
            assert vector_row["drained"] == serial_row["drained"]
        assert vector_rows[1]["mean_listens"] > 0

    def test_vector_summary_metadata(self):
        unsupported = factory(
            CompositeAdversary,
            factory(TraceArrivals, (2, 0, 1)),
        )
        plan = SweepPlan()
        plan.add_group(BinaryExponentialBackoff(), batch_adversary(10), seeds=[1, 2])
        plan.add_group(
            BinaryExponentialBackoff(initial_window=8.0), batch_adversary(10), seeds=[1, 2]
        )
        plan.add_group(LowSensingBackoff(), unsupported, seeds=[3, 4])
        summary = plan.vector_summary()
        assert summary["total_specs"] == 6
        assert summary["vectorizable_specs"] == 4
        assert list(summary["fallback_groups"]) == [2]
        # Two distinct BEB configurations: two lockstep groups, one
        # mega-batch launch (same kernel family).
        assert summary["vector_groups"] == 2
        assert summary["mega_batches"] == 1

    def test_vector_summary_stacks_potential_groups_across_arrivals(self):
        # Φ groups of one protocol and jammer class stack, even when their
        # arrival schedules differ; plain groups launch apart.
        plan = SweepPlan()
        plan.add_group(
            BinaryExponentialBackoff(),
            batch_adversary(10),
            seeds=[1, 2],
            collect_potential=True,
        )
        plan.add_group(
            BinaryExponentialBackoff(initial_window=4.0),
            factory(CompositeAdversary, factory(PoissonArrivals, 0.05, 300)),
            seeds=[1, 2],
            collect_potential=True,
        )
        plan.add_group(BinaryExponentialBackoff(), batch_adversary(10), seeds=[1, 2])
        summary = plan.vector_summary()
        assert summary["vectorizable_specs"] == 6
        assert summary["fallback_groups"] == {}
        assert (summary["vector_groups"], summary["mega_batches"]) == (3, 2)
        backend = VectorBackend()
        results = plan.run(backend).results
        assert backend.mega_batches == 2
        assert all(result.potential is not None for result in results[:4])


def _smoke_plan(name):
    from repro.experiments.experiments import EXPERIMENT_PLANS
    from repro.scenarios.catalog import get_scenario
    from repro.scenarios.runner import build_plan

    if name in EXPERIMENT_PLANS:
        return EXPERIMENT_PLANS[name](scale="smoke")
    return build_plan(get_scenario(name), "smoke")


def _smoke_plan_names():
    from repro.experiments.experiments import EXPERIMENT_PLANS
    from repro.scenarios.catalog import scenario_ids

    return [*EXPERIMENT_PLANS, *scenario_ids()]


class TestListingShowsWhatRuns:
    """``vector_summary`` (behind ``--explain`` and ``list --json``) and the
    backend place specs by one rule, so the listing is what runs."""

    @pytest.mark.parametrize("name", _smoke_plan_names())
    def test_summary_counts_equal_the_backend_counters(self, name):
        plan = _smoke_plan(name)
        summary = plan.vector_summary()
        backend = VectorBackend()
        plan.run(backend)
        assert (
            summary["vectorizable_specs"],
            summary["vector_groups"],
            summary["mega_batches"],
        ) == (backend.vectorized_jobs, backend.vector_groups, backend.mega_batches)
        assert summary["total_specs"] - summary["vectorizable_specs"] == (
            backend.fallback_jobs
        )


class TestRegistration:
    def test_backend_names_include_vector(self):
        assert "vector" in BACKEND_NAMES

    def test_make_backend_vector(self):
        backend = make_backend("vector")
        assert isinstance(backend, VectorBackend)
        description = backend.describe()
        assert description["backend"] == "vector"
        assert description["fallback"]["backend"] == "serial"

    def test_make_backend_vector_with_cache(self, tmp_path):
        backend = make_backend("vector", cache_dir=str(tmp_path))
        assert backend.describe()["inner"]["backend"] == "vector"


class TestCacheLayoutIsolation:
    """A shared --cache-dir must never serve one engine's results to the
    other: the layouts are only statistically equivalent."""

    def test_serial_cache_entry_not_served_to_vector_run(self, tmp_path):
        job = spec(BinaryExponentialBackoff(), 7)
        serial_cached = make_backend("serial", cache_dir=str(tmp_path))
        serial_result = serial_cached.run([job])[0]
        vector_cached = make_backend("vector", cache_dir=str(tmp_path))
        vector_result = vector_cached.run([job])[0]
        # The vector run must have computed its own (vector-layout) result,
        # not loaded the serial pickle.
        assert vector_cached.hits == 0
        reference = VectorBackend().run([job])[0]
        assert (
            vector_result.backlog_series()
            == reference.backlog_series()
        )
        # And the serial entry is still intact for scalar consumers.
        serial_again = make_backend("serial", cache_dir=str(tmp_path)).run([job])[0]
        assert (
            serial_again.backlog_series()
            == serial_result.backlog_series()
        )

    def test_vectorized_jobs_cache_per_job_whatever_their_batch(self, tmp_path):
        jobs = [spec(FullSensingMultiplicativeWeights(), seed) for seed in (7, 8, 9)]
        vector_cached = make_backend("vector", cache_dir=str(tmp_path))
        vector_cached.run(jobs[1:2])
        # Seed 8 ran alone; inside a group of three it is a hit, and the
        # group's results are those of an uncached run.
        cached = vector_cached.run(jobs)
        assert (vector_cached.hits, vector_cached.misses) == (1, 3)
        fresh = VectorBackend().run(jobs)
        assert [r.backlog_series() for r in cached] == [
            r.backlog_series() for r in fresh
        ]

    def test_fallback_jobs_share_the_scalar_cache(self, tmp_path):
        replayed = factory(
            CompositeAdversary,
            factory(TraceArrivals, (5, 0, 0, 5)),
        )
        job = spec(LowSensingBackoff(), 7, adversary=replayed)  # serial fallback
        serial_cached = make_backend("serial", cache_dir=str(tmp_path))
        serial_result = serial_cached.run([job])[0]
        vector_cached = make_backend("vector", cache_dir=str(tmp_path))
        vector_result = vector_cached.run([job])[0]
        # Fallback results are scalar-layout, hence safely interchangeable.
        assert vector_cached.hits == 1
        assert (
            vector_result.backlog_series()
            == serial_result.backlog_series()
        )

    def test_result_layout_declarations(self):
        backend = VectorBackend()
        replayed = factory(
            CompositeAdversary,
            factory(TraceArrivals, (5, 0, 0, 5)),
        )
        fallback_spec = spec(BinaryExponentialBackoff(), 1, adversary=replayed)
        # Every vectorizable job, every-slot kernels included, shares one
        # layout.
        for protocol in (
            BinaryExponentialBackoff(),
            LowSensingBackoff(),
            SawtoothBackoff(),
            FullSensingMultiplicativeWeights(),
        ):
            assert backend.result_layout(spec(protocol, 1)) == RESULT_LAYOUT
        assert RESULT_LAYOUT.startswith("vector:")
        assert backend.result_layout(fallback_spec) == SCALAR_LAYOUT
        assert SerialBackend().result_layout(fallback_spec) == SCALAR_LAYOUT
