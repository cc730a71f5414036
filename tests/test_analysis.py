"""Tests for statistics, scaling-model fitting, and table rendering."""

import math

import pytest

from repro.analysis.fitting import (
    fit_constant,
    fit_linear,
    fit_log_power,
    fit_power_law,
    select_scaling_model,
)
from repro.analysis.statistics import (
    benjamini_hochberg,
    describe,
    mean_confidence_interval,
    regularized_incomplete_beta,
    student_t_sf,
    welch_t_test,
)
from repro.analysis.tables import format_table, render_rows


class TestDescribe:
    def test_basic_statistics(self):
        stats = describe([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == pytest.approx(2.5)
        assert stats["min"] == 1.0 and stats["max"] == 4.0
        assert stats["median"] == pytest.approx(2.5)
        assert stats["n"] == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])


class TestConfidenceIntervals:
    def test_interval_brackets_mean(self):
        interval = mean_confidence_interval([1.0, 2.0, 3.0, 4.0, 5.0])
        assert interval.low <= interval.estimate <= interval.high
        assert interval.contains(3.0)

    def test_wider_confidence_gives_wider_interval(self):
        values = [float(v) for v in range(20)]
        narrow = mean_confidence_interval(values, confidence=0.90)
        wide = mean_confidence_interval(values, confidence=0.99)
        assert wide.width > narrow.width

    def test_requires_two_values(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0])

    def test_unsupported_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1.0, 2.0], confidence=0.5)


class TestFitting:
    def test_constant_fit(self):
        fit = fit_constant([1, 2, 3, 4], [5.0, 5.1, 4.9, 5.0])
        assert fit.parameters["a"] == pytest.approx(5.0, abs=0.1)
        assert fit.predict(100) == fit.parameters["a"]

    def test_linear_fit_recovers_slope(self):
        xs = [10, 20, 40, 80]
        ys = [2 + 3 * x for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.parameters["b"] == pytest.approx(3.0, rel=1e-6)
        assert fit.r_squared == pytest.approx(1.0)

    def test_power_law_fit_recovers_exponent(self):
        xs = [10, 20, 40, 80, 160]
        ys = [2.0 * x**1.5 for x in xs]
        fit = fit_power_law(xs, ys)
        assert fit.parameters["b"] == pytest.approx(1.5, rel=1e-6)

    def test_log_power_fit_recovers_exponent(self):
        xs = [50, 100, 200, 400, 800]
        ys = [3.0 * math.log(x) ** 3 for x in xs]
        fit = fit_log_power(xs, ys)
        assert fit.parameters["k"] == pytest.approx(3.0)
        assert fit.parameters["a"] == pytest.approx(3.0, rel=0.05)

    def test_log_power_rejects_x_at_most_one(self):
        with pytest.raises(ValueError):
            fit_log_power([1, 2], [1.0, 2.0])

    def test_power_law_rejects_nonpositive_y(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0.0, 1.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_constant([1], [1.0])

    def test_select_prefers_log_power_for_polylog_data(self):
        xs = [50, 100, 200, 400, 800, 1600]
        ys = [2.0 * math.log(x) ** 3 for x in xs]
        best = select_scaling_model(xs, ys)
        assert best.model == "log-power"

    def test_select_prefers_linear_for_linear_data(self):
        xs = [50, 100, 200, 400, 800]
        ys = [5.0 * x for x in xs]
        best = select_scaling_model(xs, ys)
        assert best.model in ("linear", "power")
        if best.model == "power":
            assert best.parameters["b"] == pytest.approx(1.0, abs=0.05)

    def test_select_prefers_constant_for_flat_data(self):
        xs = [50, 100, 200, 400]
        ys = [7.0, 7.0, 7.0, 7.0]
        assert select_scaling_model(xs, ys).model == "constant"

    def test_select_rejects_bad_penalty(self):
        with pytest.raises(ValueError):
            select_scaling_model([1, 2], [1.0, 2.0], complexity_penalty=0.5)


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["a", "b"], [[1, 2.34567], ["xy", 3]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "2.346" in table

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_booleans_render_as_yes_no(self):
        table = format_table(["ok"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_render_rows_selects_columns(self):
        rows = [{"x": 1, "y": 2}, {"x": 3, "y": 4}]
        rendered = render_rows(rows, columns=["y"])
        assert "y" in rendered and "x" not in rendered.splitlines()[0]

    def test_render_rows_empty_rejected(self):
        with pytest.raises(ValueError):
            render_rows([])


class TestStudentT:
    def test_incomplete_beta_symmetry_point(self):
        assert regularized_incomplete_beta(0.5, 0.5, 0.5) == pytest.approx(0.5)

    def test_incomplete_beta_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)

    @pytest.mark.parametrize(
        "t, df, two_sided",
        [
            (12.706, 1, 0.05),
            (4.303, 2, 0.05),
            (2.776, 4, 0.05),
            (2.228, 10, 0.05),
            (1.96, 1e7, 0.05),
        ],
    )
    def test_matches_critical_value_tables(self, t, df, two_sided):
        assert 2 * student_t_sf(t, df) == pytest.approx(two_sided, rel=1e-3)

    def test_symmetry_and_center(self):
        assert student_t_sf(0.0, 5) == 0.5
        assert student_t_sf(-2.0, 5) == pytest.approx(1.0 - student_t_sf(2.0, 5))

    def test_df_must_be_positive(self):
        with pytest.raises(ValueError):
            student_t_sf(1.0, 0)


class TestWelchTTest:
    def test_identical_samples_high_p(self):
        t, df, p = welch_t_test([1.0, 1.1, 0.9], [0.9, 1.0, 1.1])
        assert p > 0.5

    def test_small_sample_significance_is_honest(self):
        # Two replicates per side with t~3.3: the normal approximation
        # would call this p~0.001; with df~2 the honest answer is ~0.09.
        t, df, p = welch_t_test([1.0, 1.4], [2.0, 2.5])
        assert abs(t) == pytest.approx(3.28, rel=0.01)
        assert p > 0.05

    def test_clear_separation_rejected_even_at_small_n(self):
        t, df, p = welch_t_test([1.0, 1.001, 0.999, 1.0], [1.1, 1.101, 1.099, 1.1])
        assert p < 1e-6

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            welch_t_test([1.0, 1.0], [2.0, 2.0])


class TestBenjaminiHochberg:
    def test_exact_zero_p_value_is_rejected(self):
        assert benjamini_hochberg([0.0, 0.9]) == [True, False]
        assert benjamini_hochberg([0.0]) == [True]
        # Welch's t can return exactly 0.0 on well-separated samples.
        _, _, p = welch_t_test([0.0, 0.001] * 30, [1.0, 1.001] * 30)
        assert p == 0.0
        assert benjamini_hochberg([p, 0.5, 0.9]) == [True, False, False]

    def test_empty_input_rejects_nothing(self):
        assert benjamini_hochberg([]) == []

    def test_results_follow_input_order(self):
        # Sorted: 0.001 <= 0.0125 and 0.01 <= 0.025 pass; 0.04 > 0.0375.
        assert benjamini_hochberg([0.9, 0.001, 0.04, 0.01]) == [
            False, True, False, True,
        ]

    def test_step_up_rejects_below_the_largest_passing_rank(self):
        # 0.03 misses its own step (0.025) but sits below 0.04, which
        # passes at rank 2 (0.05), so both are rejected.
        assert benjamini_hochberg([0.04, 0.03]) == [True, True]
        assert benjamini_hochberg([0.2, 0.3]) == [False, False]

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            benjamini_hochberg([0.1], alpha=0.0)
        with pytest.raises(ValueError):
            benjamini_hochberg([1.5])
