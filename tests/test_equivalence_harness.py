"""Unit tests for the equivalence-harness primitives."""

from __future__ import annotations

from random import Random

import pytest

from repro.analysis.equivalence import (
    EquivalenceReport,
    MetricComparison,
    OptionError,
    compare_means,
    compare_result_sets,
    design_effect,
    ks_2sample,
)


class TestKsTwoSample:
    def test_identical_samples_have_zero_statistic(self):
        sample = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = ks_2sample(sample, list(sample))
        assert result.statistic == 0.0
        assert result.p_value == 1.0

    def test_same_distribution_passes(self):
        rng = Random(0)
        a = [rng.gauss(0.0, 1.0) for _ in range(400)]
        b = [rng.gauss(0.0, 1.0) for _ in range(400)]
        assert ks_2sample(a, b).p_value > 0.01

    def test_shifted_distribution_fails(self):
        rng = Random(0)
        a = [rng.gauss(0.0, 1.0) for _ in range(400)]
        b = [rng.gauss(1.0, 1.0) for _ in range(400)]
        assert ks_2sample(a, b).p_value < 1e-6

    def test_disjoint_samples_have_statistic_one(self):
        result = ks_2sample([0.0, 1.0, 2.0], [10.0, 11.0, 12.0])
        assert result.statistic == 1.0
        assert result.p_value < 0.05

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ks_2sample([], [1.0])

    def test_statistic_matches_hand_computation(self):
        # F1 jumps at 1,2; F2 jumps at 2,3: max gap is 1/2 at x in [1, 2).
        result = ks_2sample([1.0, 2.0], [2.0, 3.0])
        assert result.statistic == pytest.approx(0.5)


class TestDesignEffect:
    def test_independent_clusters_have_unit_design_effect(self):
        rng = Random(1)
        groups = [[rng.gauss(0.0, 1.0) for _ in range(50)] for _ in range(12)]
        # No cluster-level random effect: ICC ≈ 0.  The one-way ANOVA
        # estimator is noisy at 12 clusters, so allow a small positive bias
        # (ICC of a few percent) rather than asserting exactly 1.
        assert design_effect(groups) < 3.0

    def test_strong_clustering_deflates_toward_cluster_count(self):
        rng = Random(2)
        groups = [
            [rng.gauss(0.0, 0.01) + offset for _ in range(50)]
            for offset in (0.0, 5.0, 10.0, 15.0)
        ]
        # Packets within a cluster are nearly identical: ICC ≈ 1, so the
        # design effect approaches the mean cluster size.
        assert design_effect(groups) > 40.0

    def test_degenerate_inputs_fall_back_to_one(self):
        assert design_effect([]) == 1.0
        assert design_effect([[1.0, 2.0, 3.0]]) == 1.0  # single cluster
        assert design_effect([[1.0], [2.0], [3.0]]) == 1.0  # singletons
        assert design_effect([[2.0, 2.0], [2.0, 2.0]]) == 1.0  # zero variance

    def test_corrected_ks_is_more_conservative(self):
        rng = Random(3)
        a = [rng.gauss(0.0, 1.0) for _ in range(600)]
        b = [rng.gauss(0.3, 1.0) for _ in range(600)]
        naive = ks_2sample(a, b)
        corrected = ks_2sample(a, b, n_eff1=60, n_eff2=60)
        assert corrected.statistic == naive.statistic
        assert corrected.p_value > naive.p_value


class TestCompareMeans:
    def test_similar_samples_pass(self):
        comparison = compare_means(
            "metric", [1.0, 1.1, 0.9], [1.05, 0.95, 1.0], 0.002, 0.0
        )
        assert comparison.passed

    def test_distant_means_fail(self):
        comparison = compare_means(
            "metric", [1.0, 1.01, 0.99], [5.0, 5.01, 4.99], 0.002, 0.1
        )
        assert not comparison.passed

    def test_single_replicate_uses_relative_tolerance(self):
        close = compare_means("metric", [1.0], [1.05], 0.002, 0.1)
        assert close.passed
        far = compare_means("metric", [1.0], [2.0], 0.002, 0.1)
        assert not far.passed

    def test_zero_variance_identical_means_pass(self):
        comparison = compare_means("metric", [2.0, 2.0], [2.0, 2.0], 0.002, 0.0)
        assert comparison.passed

    def test_zero_variance_close_means_use_relative_tolerance(self):
        comparison = compare_means("metric", [2.0, 2.0], [2.1, 2.1], 0.002, 0.15)
        assert comparison.passed

    def test_systematic_bias_with_tight_spread_fails(self):
        # A systematic ~10% bias with tight replicate spread is a clear
        # statistical disagreement (huge z); the relative tolerance must
        # not mask it.
        left = [1.0, 1.001, 0.999, 1.0]
        right = [1.1, 1.101, 1.099, 1.1]
        comparison = compare_means("metric", left, right, 0.002, 0.15)
        assert not comparison.passed

    def test_modest_mean_gap_within_spread_passes(self):
        # Samples like these routinely come from the *same* heavy-tailed
        # drain-metric distribution (z ~ 1.5); a criterion that rejects
        # them would spuriously fail genuinely equivalent engines, which
        # is exactly what the small Welch alpha protects against.
        left = [0.13, 0.15, 0.14, 0.16, 0.12, 0.14]
        right = [0.15, 0.14, 0.16, 0.17, 0.13, 0.16]
        comparison = compare_means("metric", left, right, 0.002, 0.0)
        assert comparison.passed
        assert "p=" in comparison.detail

    def test_p_value_is_none_only_for_the_fallback(self):
        tested = compare_means("metric", [1.0, 1.1, 0.9], [1.05, 0.95, 1.0], 0.002, 0.0)
        assert tested.p_value is not None and tested.p_value > 0.002
        assert compare_means("metric", [1.0], [1.05], 0.002, 0.1).p_value is None
        flat = compare_means("metric", [2.0, 2.0], [2.0, 2.0], 0.002, 0.0)
        assert flat.p_value is None

    @pytest.mark.parametrize(
        "mean_alpha, tolerance, option",
        [
            (0.0, 0.1, "mean_alpha"),
            (1.0, 0.1, "mean_alpha"),
            (float("nan"), 0.1, "mean_alpha"),
            (0.002, -0.1, "relative_tolerance"),
        ],
    )
    def test_out_of_range_options_are_rejected(self, mean_alpha, tolerance, option):
        with pytest.raises(OptionError) as excinfo:
            compare_means("metric", [1.0, 1.1], [1.0, 1.2], mean_alpha, tolerance)
        assert excinfo.value.option == option


class TestReport:
    def test_passed_requires_all_comparisons(self):
        report = EquivalenceReport(
            comparisons=[
                MetricComparison("a", "ks", True, "fine"),
                MetricComparison("b", "ci-overlap", False, "off"),
            ]
        )
        assert not report.passed
        assert [c.metric for c in report.failures()] == ["b"]

    def test_render_mentions_status_and_metrics(self):
        report = EquivalenceReport(
            comparisons=[MetricComparison("throughput", "ks", True, "D=0")]
        )
        rendered = report.render()
        assert "PASS" in rendered
        assert "throughput" in rendered

    def test_empty_result_sets_rejected(self):
        with pytest.raises(ValueError):
            compare_result_sets([], [])
