"""The potential function Φ(t) and interval sizing (Sections 4.2–4.3).

The analysis of LOW-SENSING BACKOFF tracks

    Φ(t) = α1·N(t) + α2·H(t) + α3·L(t)

where ``N(t)`` is the number of packets in the system, ``H(t) = Σ_u
1/ln(w_u(t))`` captures high-contention progress, and ``L(t) =
w_max(t)/ln²(w_max(t))`` captures the cost of draining the largest window
(L is 0 when no packets are present).  Theorem 5.18 shows Φ decreases by
Ω(τ) − O(A + J) over intervals of length

    τ = (1/c_int) · max( w_max(t)/ln²(w_max(t)),  sqrt(N(t)) ).

The classes here compute Φ online from per-packet window sizes so that
experiment E9 can measure the empirical drift of Φ over exactly those
intervals and verify the negative-drift behaviour the proof relies on.

The coefficients α1 > α2 > α3 are analysis constants, not algorithm
parameters; the defaults below respect the ordering the proofs need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class PotentialCoefficients:
    """Coefficients (α1, α2, α3) with the ordering α1 > α2 > α3 > 0."""

    alpha1: float = 4.0
    alpha2: float = 2.0
    alpha3: float = 1.0

    def __post_init__(self) -> None:
        if not self.alpha1 > self.alpha2 > self.alpha3 > 0.0:
            raise ValueError("coefficients must satisfy alpha1 > alpha2 > alpha3 > 0")


@dataclass(frozen=True)
class PotentialSample:
    """The decomposed potential at one slot."""

    slot: int
    num_packets: int
    h_term: float
    l_term: float
    contention: float
    potential: float


def h_term(windows: Iterable[float]) -> float:
    """``H(t) = Σ_u 1/ln(w_u)``; 0 when there are no packets."""
    total = 0.0
    for window in windows:
        if window <= 1.0:
            raise ValueError("window sizes must exceed 1 for H(t) to be defined")
        total += 1.0 / math.log(window)
    return total


def l_term(windows: Sequence[float]) -> float:
    """``L(t) = w_max/ln²(w_max)``; 0 when there are no packets."""
    if not windows:
        return 0.0
    w_max = max(windows)
    if w_max <= 1.0:
        raise ValueError("window sizes must exceed 1 for L(t) to be defined")
    return w_max / math.log(w_max) ** 2


def interval_length(
    windows: Sequence[float],
    c_interval: float = 1.0,
    minimum: float = 1.0,
) -> int:
    """Interval length τ from Section 4.3.

    ``τ = (1/c_interval) · max( w_max/ln²(w_max), sqrt(N) )`` rounded up and
    floored at ``minimum`` (the paper's minimum interval size is governed by
    ``w_min``; a floor of 1 keeps the quantity well defined when the system
    is nearly empty).
    """
    if c_interval <= 0.0:
        raise ValueError("c_interval must be positive")
    if not windows:
        return int(max(1.0, minimum))
    tau = max(l_term(windows), math.sqrt(len(windows))) / c_interval
    return int(max(minimum, math.ceil(tau)))


class PotentialTracker:
    """Computes and records Φ(t) over an execution.

    The tracker is fed the vector of active window sizes once per slot (the
    engine does this when potential instrumentation is enabled) and stores a
    :class:`PotentialSample` per slot.  Helper methods then report the drift
    of Φ over the analysis intervals of Section 4.3, which is what E9 plots.
    """

    def __init__(self, coefficients: PotentialCoefficients | None = None) -> None:
        self.coefficients = coefficients or PotentialCoefficients()
        self.samples: list[PotentialSample] = []

    def record(self, slot: int, windows: Sequence[float]) -> PotentialSample:
        """Record the potential for ``slot`` given active window sizes."""
        coeffs = self.coefficients
        n = len(windows)
        h = h_term(windows) if windows else 0.0
        l_value = l_term(windows)
        contention_value = sum(1.0 / w for w in windows)
        phi = 0.0
        if n:
            phi = coeffs.alpha1 * n + coeffs.alpha2 * h + coeffs.alpha3 * l_value
        sample = PotentialSample(
            slot=slot,
            num_packets=n,
            h_term=h,
            l_term=l_value,
            contention=contention_value,
            potential=phi,
        )
        self.samples.append(sample)
        return sample

    # -- Analysis helpers ----------------------------------------------------

    def max_potential(self) -> float:
        return max((s.potential for s in self.samples), default=0.0)

    def interval_drifts(self, c_interval: float = 1.0) -> list[tuple[int, int, float]]:
        """Drift of Φ over consecutive analysis intervals.

        Starting from slot 0, each interval's length is computed from the
        state at its first slot via :func:`interval_length` (approximated
        from the recorded sample: the number of packets and the L term).
        Returns a list of ``(start_slot, length, phi_end - phi_start)``.
        """
        drifts: list[tuple[int, int, float]] = []
        if not self.samples:
            return drifts
        index = 0
        while index < len(self.samples):
            sample = self.samples[index]
            if sample.num_packets == 0:
                index += 1
                continue
            tau = max(
                1,
                int(
                    math.ceil(
                        max(sample.l_term, math.sqrt(sample.num_packets)) / c_interval
                    )
                ),
            )
            end = min(index + tau, len(self.samples) - 1)
            if end == index:
                break
            drift = self.samples[end].potential - sample.potential
            drifts.append((sample.slot, end - index, drift))
            index = end
        return drifts

    def fraction_negative_drift(self, c_interval: float = 1.0) -> float:
        """Fraction of analysis intervals over which Φ strictly decreased."""
        drifts = self.interval_drifts(c_interval)
        if not drifts:
            return 0.0
        negative = sum(1 for _, _, drift in drifts if drift < 0.0)
        return negative / len(drifts)
