"""Vector-vs-scalar statistical equivalence (`repro.analysis.equivalence`).

The two engines draw differently shaped random streams, so their outputs
can only be compared in distribution.  These tests run modest replicated
workloads through both engines and require the harness to pass — they are
deterministic given the seed lists, so a pass here is stable, not flaky.
"""

from __future__ import annotations

import pytest

from repro.adversary.arrivals import BatchArrivals, PoissonArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming, PeriodicJamming
from repro.analysis.equivalence import (
    compare_result_sets,
    verify_vector_equivalence,
)
from repro.exec import SerialBackend
from repro.experiments.plan import factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.protocols.polynomial_backoff import PolynomialBackoff
from tests.conftest import run_specs

SEEDS = tuple(range(1, 13))


class TestVectorMatchesScalarStatistically:
    @pytest.mark.parametrize(
        "protocol",
        [
            BinaryExponentialBackoff(),
            PolynomialBackoff(),
            FixedProbabilityProtocol.tuned_for(60),
        ],
        ids=lambda p: p.name,
    )
    def test_batch_workload(self, protocol):
        adversary = factory(CompositeAdversary, factory(BatchArrivals, 60))
        report = verify_vector_equivalence(run_specs(protocol, adversary, SEEDS))
        assert report.passed, report.render()

    def test_jammed_batch_workload(self):
        adversary = factory(
            CompositeAdversary,
            factory(BatchArrivals, 50),
            factory(PeriodicJamming, period=7, budget=30),
        )
        report = verify_vector_equivalence(
            run_specs(BinaryExponentialBackoff(), adversary, SEEDS)
        )
        assert report.passed, report.render()

    def test_poisson_bernoulli_workload(self):
        adversary = factory(
            CompositeAdversary,
            factory(PoissonArrivals, rate=0.04, horizon=1200),
            factory(BernoulliJamming, probability=0.05, budget=20),
        )
        report = verify_vector_equivalence(
            run_specs(BinaryExponentialBackoff(), adversary, SEEDS, max_slots=20_000)
        )
        assert report.passed, report.render()

    def test_report_includes_determinism_check(self):
        adversary = factory(CompositeAdversary, factory(BatchArrivals, 30))
        report = verify_vector_equivalence(
            run_specs(PolynomialBackoff(), adversary, range(1, 7))
        )
        metrics = {c.metric for c in report.comparisons}
        assert "vector_determinism" in metrics
        assert "throughput" in metrics
        assert "latency_distribution" in metrics

    def test_rejects_non_vectorizable_specs(self):
        from repro.adversary.arrivals import TraceArrivals

        adversary = factory(
            CompositeAdversary,
            factory(TraceArrivals, [10, 0, 0]),
        )
        with pytest.raises(ValueError, match="cannot vectorize"):
            verify_vector_equivalence(run_specs(PolynomialBackoff(), adversary, SEEDS))


class TestHarnessDetectsRealDifferences:
    def test_different_protocols_fail_the_harness(self):
        """Negative control: comparing two genuinely different systems
        (well-tuned vs badly mistuned fixed probability) must FAIL."""
        adversary = factory(CompositeAdversary, factory(BatchArrivals, 20))
        tuned = SerialBackend().run(
            run_specs(
                FixedProbabilityProtocol.tuned_for(20), adversary, SEEDS, max_slots=3_000
            )
        )
        mistuned = SerialBackend().run(
            run_specs(
                FixedProbabilityProtocol(probability=0.4), adversary, SEEDS, max_slots=3_000
            )
        )
        report = compare_result_sets(tuned, mistuned)
        assert not report.passed
        assert report.failures()
