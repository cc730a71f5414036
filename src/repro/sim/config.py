"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.adversary.base import Adversary
from repro.protocols.base import BackoffProtocol


@dataclass
class SimulationConfig:
    """Everything needed to run one reproducible execution.

    Parameters
    ----------
    protocol:
        The contention-resolution protocol under test.
    adversary:
        The arrival + jamming adversary.
    seed:
        Master seed; all randomness (packets and adversary) derives from it.
    max_slots:
        Hard cap on the number of simulated slots.  An execution stops
        earlier, drained, as soon as no packet remains and the arrival
        process reports it is exhausted; one whose arrivals never exhaust
        runs to the cap.
    collect_potential:
        Track the potential function Φ(t) each slot, with the default
        coefficients (α1, α2, α3) of
        :class:`~repro.core.potential.PotentialCoefficients`, over the
        windows of the active packets (LOW-SENSING, decoupled LSB, BEB,
        polynomial and Sawtooth expose one; windowless protocols record
        zero terms); used by experiment E9.
    dynamics_window:
        When positive, sample a windowed dynamics trajectory every this
        many slots (see :mod:`repro.dynamics`).  Dynamics are result-inert
        — the trajectory is excluded from :meth:`describe` so spec hashes
        and stored artifacts are identical with it on or off.
    """

    protocol: BackoffProtocol
    adversary: Adversary
    seed: int = 0
    max_slots: int = 100_000
    collect_potential: bool = False
    dynamics_window: int = 0

    def __post_init__(self) -> None:
        if self.max_slots <= 0:
            raise ValueError("max_slots must be positive")
        if self.dynamics_window < 0:
            raise ValueError("dynamics_window must be >= 0")

    def describe(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol.describe(),
            "adversary": self.adversary.describe(),
            "seed": self.seed,
            "max_slots": self.max_slots,
            # Every run stops drained; the constant keeps stored descriptions.
            "stop_when_drained": True,
            # No run records a trace; the constant keeps stored descriptions.
            "collect_trace": False,
            "collect_potential": self.collect_potential,
        }
