"""Tests for the potential function Φ(t) and interval sizing."""

import math

import pytest

from repro.core.potential import (
    PotentialCoefficients,
    PotentialTracker,
    h_term,
    interval_length,
    l_term,
)


class TestCoefficients:
    def test_defaults_respect_ordering(self):
        coefficients = PotentialCoefficients()
        assert coefficients.alpha1 > coefficients.alpha2 > coefficients.alpha3 > 0.0

    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError):
            PotentialCoefficients(alpha1=1.0, alpha2=2.0, alpha3=0.5)
        with pytest.raises(ValueError):
            PotentialCoefficients(alpha1=3.0, alpha2=2.0, alpha3=0.0)


class TestTerms:
    def test_h_term_formula(self):
        windows = [32.0, 64.0]
        expected = 1.0 / math.log(32.0) + 1.0 / math.log(64.0)
        assert h_term(windows) == pytest.approx(expected)

    def test_h_term_empty(self):
        assert h_term([]) == 0.0

    def test_h_term_rejects_small_windows(self):
        with pytest.raises(ValueError):
            h_term([1.0])

    def test_l_term_uses_largest_window(self):
        windows = [32.0, 500.0, 64.0]
        expected = 500.0 / math.log(500.0) ** 2
        assert l_term(windows) == pytest.approx(expected)

    def test_l_term_empty_is_zero(self):
        assert l_term([]) == 0.0


class TestIntervalLength:
    def test_sqrt_n_dominates_for_many_small_windows(self):
        windows = [32.0] * 400
        # L(t) = 32/ln^2(32) ≈ 2.66 < sqrt(400) = 20.
        assert interval_length(windows) == 20

    def test_large_window_dominates(self):
        windows = [32.0, 10_000.0]
        expected = math.ceil(10_000.0 / math.log(10_000.0) ** 2)
        assert interval_length(windows) == expected

    def test_scaling_by_c_interval(self):
        windows = [32.0] * 100
        assert interval_length(windows, c_interval=2.0) == 5

    def test_empty_system_has_minimum_interval(self):
        assert interval_length([]) == 1

    def test_invalid_c_interval(self):
        with pytest.raises(ValueError):
            interval_length([32.0], c_interval=0.0)


class TestTracker:
    def test_inactive_slot_has_zero_potential(self):
        tracker = PotentialTracker()
        sample = tracker.record(0, [])
        assert sample.potential == 0.0
        assert sample.num_packets == 0

    def test_potential_combines_three_terms(self):
        coefficients = PotentialCoefficients(alpha1=4.0, alpha2=2.0, alpha3=1.0)
        tracker = PotentialTracker(coefficients)
        windows = [32.0, 64.0]
        sample = tracker.record(0, windows)
        expected = 4.0 * 2 + 2.0 * h_term(windows) + 1.0 * l_term(windows)
        assert sample.potential == pytest.approx(expected)

    def test_contention_recorded(self):
        tracker = PotentialTracker()
        sample = tracker.record(0, [32.0, 32.0])
        assert sample.contention == pytest.approx(2.0 / 32.0)

    def test_series_and_max(self):
        tracker = PotentialTracker()
        tracker.record(0, [32.0] * 10)
        tracker.record(1, [32.0] * 5)
        tracker.record(2, [])
        series = [sample.potential for sample in tracker.samples]
        assert len(series) == 3
        assert series[0] > series[1] > series[2] == 0.0
        assert tracker.max_potential() == series[0]

    def test_interval_drifts_on_shrinking_system(self):
        tracker = PotentialTracker()
        # Simulate a system that loses one packet per slot.
        for slot in range(30):
            tracker.record(slot, [32.0] * (30 - slot))
        drifts = tracker.interval_drifts()
        assert drifts, "expected at least one analysis interval"
        assert all(length >= 1 for _, length, _ in drifts)
        assert all(drift < 0.0 for _, _, drift in drifts)
        assert tracker.fraction_negative_drift() == 1.0

    def test_fraction_negative_drift_empty_tracker(self):
        assert PotentialTracker().fraction_negative_drift() == 0.0
