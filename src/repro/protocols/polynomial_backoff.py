"""Polynomial backoff.

A send-only (oblivious) baseline in which the window grows polynomially in
the number of collisions rather than exponentially: after ``k`` collisions
the window is ``initial_window * (k + 1) ** degree``.  Polynomial backoff is
known to trade longer batch makespan for better stability under stochastic
arrivals than binary exponential backoff [Håstad–Leighton–Rogoff, STOC'87];
it appears in the experiments as a second oblivious point of comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from repro.channel.actions import SEND, SLEEP, ActionKind
from repro.channel.feedback import FeedbackReport
from repro.protocols.base import BackoffProtocol, PacketState


class PolynomialPacketState(PacketState):
    """Per-packet state: collision count and the derived window."""

    __slots__ = ("collisions", "_initial_window", "_degree")

    def __init__(self, initial_window: float, degree: float) -> None:
        self.collisions = 0
        self._initial_window = float(initial_window)
        self._degree = float(degree)

    @property
    def window(self) -> float:
        return self._initial_window * (self.collisions + 1) ** self._degree

    def decide(self, rng: Random) -> ActionKind:
        if rng.random() < 1.0 / self.window:
            return SEND
        return SLEEP

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        if report.sent and not report.succeeded:
            self.collisions += 1

    def sending_probability(self) -> float:
        return 1.0 / self.window

    def describe(self) -> dict[str, Any]:
        return {"collisions": self.collisions, "window": self.window}


@dataclass(frozen=True)
class PolynomialBackoff(BackoffProtocol):
    """Polynomial backoff with configurable degree.

    Parameters
    ----------
    initial_window:
        Window for a fresh packet (before any collision).
    degree:
        Polynomial degree of window growth in the collision count;
        2.0 gives quadratic backoff.
    """

    initial_window: float = 2.0
    degree: float = 2.0

    name: str = "polynomial"

    def __post_init__(self) -> None:
        if self.initial_window < 1.0:
            raise ValueError("initial_window must be at least 1")
        if self.degree <= 0.0:
            raise ValueError("degree must be positive")

    def new_packet_state(self) -> PolynomialPacketState:
        return PolynomialPacketState(
            initial_window=self.initial_window, degree=self.degree
        )

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "initial_window": self.initial_window,
            "degree": self.degree,
        }
