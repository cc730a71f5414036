"""Tests for the (λ, S) adversarial-queuing constraint."""

import pytest

from repro.queueing.model import QueueingConstraint


class TestQueueingConstraint:
    def test_window_budget(self):
        assert QueueingConstraint(rate=0.2, granularity=100).window_budget == 20
        assert QueueingConstraint(rate=0.25, granularity=10).window_budget == 2

    def test_admissible_sequence(self):
        constraint = QueueingConstraint(rate=0.5, granularity=4)
        arrivals = [1, 1, 0, 0, 0, 2, 0, 0]
        jammed = [False] * 8
        assert constraint.is_admissible(arrivals, jammed)

    def test_jamming_counts_against_the_budget(self):
        constraint = QueueingConstraint(rate=0.5, granularity=4)
        arrivals = [2, 0, 0, 0]
        jammed = [False, True, False, False]
        assert not constraint.is_admissible(arrivals, jammed)

    def test_sliding_windows_are_stricter_than_aligned(self):
        # Two bursts that straddle an aligned window boundary.
        arrivals = [0, 0, 0, 2, 2, 0, 0, 0]
        jammed = [False] * 8
        aligned = QueueingConstraint(rate=0.5, granularity=4, sliding=False)
        sliding = QueueingConstraint(rate=0.5, granularity=4, sliding=True)
        assert aligned.is_admissible(arrivals, jammed)
        assert not sliding.is_admissible(arrivals, jammed)

    def test_window_loads_aligned(self):
        constraint = QueueingConstraint(rate=0.5, granularity=3, sliding=False)
        loads = constraint.window_loads([1, 0, 2, 0, 1, 0, 3], [False] * 7)
        assert loads == [3, 1, 3]

    def test_window_loads_sliding(self):
        constraint = QueueingConstraint(rate=0.5, granularity=2, sliding=True)
        loads = constraint.window_loads([1, 0, 2, 1], [False] * 4)
        assert loads == [1, 2, 3]

    def test_short_execution_single_window(self):
        constraint = QueueingConstraint(rate=0.5, granularity=10)
        assert constraint.window_loads([1, 1], [False, False]) == [2]

    def test_empty_execution(self):
        constraint = QueueingConstraint(rate=0.5, granularity=10)
        assert constraint.window_loads([], []) == []
        assert constraint.max_window_load([], []) == 0

    def test_max_window_load(self):
        constraint = QueueingConstraint(rate=0.5, granularity=2)
        assert constraint.max_window_load([3, 0, 1, 1], [False] * 4) == 3

    def test_length_mismatch_rejected(self):
        constraint = QueueingConstraint(rate=0.5, granularity=2)
        with pytest.raises(ValueError):
            constraint.window_loads([1], [])

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueingConstraint(rate=1.0, granularity=10)
        with pytest.raises(ValueError):
            QueueingConstraint(rate=0.5, granularity=0)

