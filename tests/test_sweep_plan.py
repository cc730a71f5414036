"""Tests for the declarative sweep layer (factories, RunSpec, SweepPlan)."""

import hashlib
import json
import pickle

import pytest

from repro.adversary.arrivals import BatchArrivals, PoissonArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming, NoJamming
from repro.adversary.scheduled import ScheduledJamming
from repro.core.low_sensing import LowSensingBackoff
from repro.exec.backends import ProcessPoolBackend, SerialBackend
from repro.experiments.experiments import run_e1_throughput_batch, run_e9_potential_drift
from repro.experiments.plan import RunSpec, SweepPlan, aggregate_replicate_row, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.scenarios.schedule import Phase
from repro.sim.engine import Simulator


def _batch_adversary(n):
    return factory(CompositeAdversary, factory(BatchArrivals, n))


class TestFactory:
    def test_builds_fresh_instances(self):
        f = _batch_adversary(5)
        first, second = f.build(), f.build()
        assert first is not second
        assert first.arrival_process.n == 5

    def test_nested_factories_and_kwargs(self):
        f = factory(
            CompositeAdversary,
            factory(BatchArrivals, 3),
            factory(BernoulliJamming, probability=0.5, budget=2),
        )
        adversary = f.build()
        assert adversary.arrival_process.n == 3
        assert adversary.jammer.probability == 0.5
        assert adversary.jammer.budget == 2

    def test_picklable(self):
        f = _batch_adversary(4)
        rebuilt = pickle.loads(pickle.dumps(f))
        assert rebuilt.build().arrival_process.n == 4


class TestRunSpec:
    def test_build_config_propagates_fields(self):
        spec = RunSpec(
            protocol=LowSensingBackoff(),
            adversary=_batch_adversary(7),
            seed=42,
            max_slots=1_000,
            collect_potential=True,
        )
        config = spec.build_config()
        assert config.seed == 42
        assert config.max_slots == 1_000
        assert config.collect_potential
        # Fresh adversary per build: budgeted/windowed adversaries are
        # stateful, so sharing one across runs would leak state.
        assert spec.build_config().adversary is not config.adversary

    def test_cache_key_stable_and_discriminating(self):
        spec = RunSpec(LowSensingBackoff(), _batch_adversary(7), seed=1)
        assert spec.cache_key() == spec.cache_key()
        other_seed = RunSpec(LowSensingBackoff(), _batch_adversary(7), seed=2)
        other_n = RunSpec(LowSensingBackoff(), _batch_adversary(8), seed=1)
        keys = {spec.cache_key(), other_seed.cache_key(), other_n.cache_key()}
        assert len(keys) == 3

    def test_cache_key_none_for_plain_callables(self):
        spec = RunSpec(
            LowSensingBackoff(),
            lambda: CompositeAdversary(BatchArrivals(3)),
            seed=1,
        )
        assert spec.cache_key() is None
        # The spec must still be runnable.
        assert spec.build_config().adversary.arrival_process.n == 3


#: Three specs and their canonical forms as stored: ``RunSpec.cache_key()``
#: and the SHA-256 of ``SimulationConfig.describe()`` as JSON in its key
#: order (the order a pickled ``config_description`` keeps).  Every stored
#: run is filed under its spec hash and holds its description, so an edit
#: to either canonical form orphans the store.
PINNED_SPECS = [
    (
        RunSpec(
            LowSensingBackoff(),
            factory(CompositeAdversary, factory(BatchArrivals, 50)),
            seed=7,
        ),
        "26ed19d8ae9ed3c526817cbe2a72ad3390b695046694362290d912c914e77ce8",
        "85e9df3a2e9aa117192acfa8095e239868383807e03a7765067eb37cdd5a584a",
    ),
    (
        RunSpec(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 30),
                factory(
                    ScheduledJamming,
                    factory(
                        Phase, factory(BernoulliJamming, 0.2, budget=10), duration=100
                    ),
                    factory(Phase, factory(NoJamming)),
                ),
            ),
            seed=3,
            max_slots=5_000,
        ),
        "9c419e828e055f99f947345bb3ebf3ea1b73288c6146d220d04c702ca61df733",
        "a018ab5cea03e8442f98a4e4887fdb3220c40a44a6b791a3d026b0439c984a98",
    ),
    (
        RunSpec(
            FixedProbabilityProtocol(probability=0.1),
            factory(
                CompositeAdversary, factory(PoissonArrivals, rate=0.02, horizon=500)
            ),
            seed=11,
            collect_potential=True,
        ),
        "f5124a959b184de6530f01bec21afd9c4da3622795c05f36de3523f57a952d1f",
        "60a65d5f60aa1f449649933b08ced3b2a4429b119e80cf6ba3c96ef7f6de81bb",
    ),
]


class TestCanonicalForms:
    @pytest.mark.parametrize(
        "spec, cache_key, description",
        PINNED_SPECS,
        ids=["low-sensing-batch", "beb-scheduled-jamming", "fixed-probability-potential"],
    )
    def test_spec_hash_and_description_are_pinned(self, spec, cache_key, description):
        described = spec.build_config().describe()
        assert list(described) == [
            "protocol",
            "adversary",
            "seed",
            "max_slots",
            "stop_when_drained",
            "collect_trace",
            "collect_potential",
        ]
        assert spec.cache_key() == cache_key
        digest = hashlib.sha256(json.dumps(described).encode()).hexdigest()
        assert digest == description

class TestSweepPlan:
    def test_one_spec_per_seed_and_grouping(self):
        plan = SweepPlan()
        gid = plan.add_group(
            LowSensingBackoff(), _batch_adversary(5), [1, 2, 3], columns={"n": 5}
        )
        assert len(plan) == 3
        group = plan.groups[gid]
        assert group.seeds == (1, 2, 3)
        assert [plan.specs[i].seed for i in group.spec_indices] == [1, 2, 3]

    def test_requires_seeds(self):
        with pytest.raises(ValueError):
            SweepPlan().add_group(LowSensingBackoff(), _batch_adversary(5), [])

    def test_groups_default_to_the_run_spec_cap(self):
        # One default cap: a group that names none files the same specs, and
        # so the same spec hashes, as RunSpec built without one.
        plan = SweepPlan()
        plan.add_group(LowSensingBackoff(), _batch_adversary(5), [1, 2])
        direct = [
            RunSpec(LowSensingBackoff(), _batch_adversary(5), seed=seed)
            for seed in (1, 2)
        ]
        assert [spec.max_slots for spec in plan.specs] == [200_000, 200_000]
        assert [spec.cache_key() for spec in plan.specs] == [
            spec.cache_key() for spec in direct
        ]

    def test_run_matches_direct_simulation(self):
        plan = SweepPlan()
        plan.add_group(LowSensingBackoff(), _batch_adversary(10), [3])
        result = plan.run().results[0]
        direct = Simulator(plan.specs[0].build_config()).run()
        assert result.summary() == direct.summary()

    def test_group_row_contains_sweep_columns(self):
        plan = SweepPlan()
        plan.add_group(
            LowSensingBackoff(), _batch_adversary(20), [1, 2], columns={"n": 20}
        )
        row = plan.run().group_rows()[0]
        assert row["protocol"] == "low-sensing"
        assert row["n"] == 20
        assert row["replicates"] == 2
        assert row["arrivals"] == 20
        assert row["delivered"] == 20
        assert 0.0 < row["throughput"] <= 1.0
        assert row["drained"]

    def test_group_rows_match_direct_replicates(self):
        """A group's row aggregates exactly the per-seed direct runs."""
        seeds = [1, 2]
        plan = SweepPlan()
        plan.add_group(
            LowSensingBackoff(), _batch_adversary(20), seeds, columns={"n": 20}
        )
        direct = [Simulator(spec.build_config()).run() for spec in plan.specs]
        expected = aggregate_replicate_row(
            direct, protocol_name="low-sensing", extra_columns={"n": 20}
        )
        assert plan.run().group_rows() == [expected]

    def test_group_rows_follow_group_order(self):
        plan = SweepPlan()
        for n in (30, 10):
            plan.add_group(
                LowSensingBackoff(), _batch_adversary(n), [1], columns={"n": n}
            )
        rows = plan.run().group_rows()
        assert [(row["n"], row["arrivals"]) for row in rows] == [(30, 30), (10, 10)]


class TestPlacementProbesOncePerConfiguration:
    def test_480_specs_of_2_configurations_cost_2_probes(self, monkeypatch):
        """Listing, running and laying out a large plan probes vector
        support once per configuration, not once per job."""
        from repro.exec import VectorBackend
        from repro.protocols.binary_exponential import BinaryExponentialBackoff
        from repro.sim.vector import support

        probed = []
        probe = support.vector_support

        def counted(spec):
            probed.append(spec)
            return probe(spec)

        support._placement.cache_clear()
        monkeypatch.setattr(support, "vector_support", counted)
        plan = SweepPlan()
        for protocol in (LowSensingBackoff(), BinaryExponentialBackoff()):
            plan.add_group(protocol, _batch_adversary(3), range(11, 251), max_slots=2_000)
        assert len(plan) == 480
        summary = plan.vector_summary()
        backend = VectorBackend()
        plan.run(backend)
        layouts = {backend.result_layout(spec) for spec in plan.specs}
        assert len(probed) == 2
        assert {spec.seed for spec in probed} == {0}
        assert summary["vectorizable_specs"] == backend.vectorized_jobs == 480
        assert len(layouts) == 1


class TestBackendEquivalence:
    """The same plan must produce bit-identical summaries on every backend."""

    def _plan(self):
        plan = SweepPlan()
        plan.add_group(
            LowSensingBackoff(), _batch_adversary(15), [1, 2], columns={"n": 15}
        )
        plan.add_group(
            LowSensingBackoff(), _batch_adversary(30), [1, 2], columns={"n": 30}
        )
        return plan

    def test_serial_vs_processes(self):
        serial = self._plan().run(SerialBackend())
        parallel = self._plan().run(ProcessPoolBackend(workers=2))
        assert [r.summary() for r in parallel.results] == [
            r.summary() for r in serial.results
        ]
        assert parallel.group_rows() == serial.group_rows()

    def test_experiment_rows_identical_across_backends(self):
        serial_report = run_e1_throughput_batch(scale="smoke")
        parallel_report = run_e1_throughput_batch(
            scale="smoke", backend=ProcessPoolBackend(workers=2)
        )
        assert parallel_report.rows == serial_report.rows
        assert parallel_report.verdicts == serial_report.verdicts

    def test_potential_experiment_survives_processes(self):
        # E9 ships PotentialTracker objects across the process boundary.
        report = run_e9_potential_drift(
            scale="smoke", backend=ProcessPoolBackend(workers=2)
        )
        assert report.rows
