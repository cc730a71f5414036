"""Throughput and implicit throughput.

Definitions (Section 1.1, including the jamming extension):

* ``throughput(t) = (T_t + J_t) / S_t`` — successes plus jammed slots over
  active slots;
* ``implicit_throughput(t) = (N_t + J_t) / S_t`` — arrivals plus jammed
  slots over active slots.

Both are computed over *active* slots only; jammed slots are counted only
when active (jamming an empty system neither helps nor hurts the algorithm,
and counting it would let an adversary inflate the metric for free).
Observation 1.1: whenever the system is empty the two quantities coincide,
which the property tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ThroughputAccounting:
    """Cumulative counts needed to evaluate both throughput metrics."""

    arrivals: int
    successes: int
    jammed_active: int
    active_slots: int

    def __post_init__(self) -> None:
        if min(self.arrivals, self.successes, self.jammed_active, self.active_slots) < 0:
            raise ValueError("counts cannot be negative")
        if self.successes > self.arrivals:
            raise ValueError("cannot have more successes than arrivals")

    @property
    def throughput(self) -> float:
        """``(T + J) / S``; defined as 1.0 when there were no active slots."""
        if self.active_slots == 0:
            return 1.0
        return (self.successes + self.jammed_active) / self.active_slots

    @property
    def implicit_throughput(self) -> float:
        """``(N + J) / S``; defined as 1.0 when there were no active slots."""
        if self.active_slots == 0:
            return 1.0
        return (self.arrivals + self.jammed_active) / self.active_slots


def throughput_series(
    cumulative_successes: Sequence[int],
    cumulative_jammed_active: Sequence[int],
    cumulative_active_slots: Sequence[int],
) -> list[float]:
    """Per-slot throughput series ``(T_t + J_t) / S_t``.

    Slots before the first active slot report 1.0 (vacuous throughput), in
    line with the paper's convention that the first slot of interest is the
    first active slot.
    """
    return _ratio_series(
        cumulative_successes, cumulative_jammed_active, cumulative_active_slots
    )


def implicit_throughput_series(
    cumulative_arrivals: Sequence[int],
    cumulative_jammed_active: Sequence[int],
    cumulative_active_slots: Sequence[int],
) -> list[float]:
    """Per-slot implicit throughput series ``(N_t + J_t) / S_t``."""
    return _ratio_series(
        cumulative_arrivals, cumulative_jammed_active, cumulative_active_slots
    )


def _ratio_series(
    counts: Sequence[int], jammed_active: Sequence[int], active_slots: Sequence[int]
) -> list[float]:
    _check_equal_lengths(counts, jammed_active, active_slots)
    numerator = np.asarray(counts, dtype=np.int64) + np.asarray(
        jammed_active, dtype=np.int64
    )
    active = np.asarray(active_slots, dtype=np.int64)
    return np.where(active == 0, 1.0, numerator / np.maximum(active, 1)).tolist()


def _check_equal_lengths(*sequences: Sequence[int]) -> None:
    lengths = {len(sequence) for sequence in sequences}
    if len(lengths) > 1:
        raise ValueError(f"series lengths differ: {sorted(lengths)}")
