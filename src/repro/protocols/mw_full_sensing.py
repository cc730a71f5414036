"""Full-sensing multiplicative-weights backoff (Chang–Jin–Pettie style [36]).

The representative "short feedback loop" protocol: a packet listens in
*every* slot and multiplicatively updates its sending probability from the
ternary feedback.  This family achieves Θ(1) throughput under adversarial
arrivals — the property the paper preserves — but at the cost of one channel
access per active slot per packet, which is exactly the energy inefficiency
LOW-SENSING BACKOFF removes.  Experiments E1 and E8 use it as the
constant-throughput / high-energy reference point.

Update rule (a standard multiplicative-weights scheme in the spirit of
[36, 19, 130, 136–138]): with sending probability ``p``,

* silence   -> ``p <- min(p * increase, p_max)``  (the channel is under-used);
* noise     -> ``p <- max(p / decrease, p_min)``  (the channel is over-used);
* success by another packet -> ``p`` unchanged.

The packet sends with probability ``p`` and listens otherwise, so every
active slot costs one channel access.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from repro.channel.actions import LISTEN, SEND, Action
from repro.channel.feedback import Feedback, FeedbackReport
from repro.protocols.base import BackoffProtocol, PacketState


class FullSensingPacketState(PacketState):
    """Per-packet state: the current sending probability."""

    __slots__ = ("probability", "_increase", "_decrease", "_p_min", "_p_max")

    def __init__(
        self, initial_probability: float, increase: float, decrease: float,
        p_min: float, p_max: float,
    ) -> None:
        self.probability = float(initial_probability)
        self._increase = float(increase)
        self._decrease = float(decrease)
        self._p_min = float(p_min)
        self._p_max = float(p_max)

    def decide(self, rng: Random) -> Action:
        if rng.random() < self.probability:
            return SEND
        return LISTEN

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        if report.succeeded:
            return
        if report.feedback is Feedback.EMPTY:
            self.probability = min(self.probability * self._increase, self._p_max)
        elif report.feedback is Feedback.NOISE:
            self.probability = max(self.probability / self._decrease, self._p_min)
        # SUCCESS heard from another packet: no change.

    def sending_probability(self) -> float:
        return self.probability

    def describe(self) -> dict[str, Any]:
        return {"probability": self.probability}


@dataclass(frozen=True)
class FullSensingMultiplicativeWeights(BackoffProtocol):
    """Full-sensing multiplicative-weights protocol.

    Parameters
    ----------
    initial_probability:
        Sending probability for a freshly injected packet.
    increase, decrease:
        Multiplicative factors applied on silence / noise respectively.
    p_min, p_max:
        Clamps on the sending probability.
    """

    initial_probability: float = 0.25
    increase: float = 1.1
    decrease: float = 1.1
    p_min: float = 1e-6
    p_max: float = 0.5

    name: str = "full-sensing-mw"

    def __post_init__(self) -> None:
        if not 0.0 < self.initial_probability <= 1.0:
            raise ValueError("initial_probability must be in (0, 1]")
        if self.increase <= 1.0 or self.decrease <= 1.0:
            raise ValueError("increase and decrease factors must exceed 1")
        if not 0.0 < self.p_min <= self.p_max <= 1.0:
            raise ValueError("require 0 < p_min <= p_max <= 1")
        if not self.p_min <= self.initial_probability <= self.p_max:
            raise ValueError("initial_probability must lie within [p_min, p_max]")

    def new_packet_state(self) -> FullSensingPacketState:
        return FullSensingPacketState(
            initial_probability=self.initial_probability,
            increase=self.increase,
            decrease=self.decrease,
            p_min=self.p_min,
            p_max=self.p_max,
        )

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "initial_probability": self.initial_probability,
            "increase": self.increase,
            "decrease": self.decrease,
            "p_min": self.p_min,
            "p_max": self.p_max,
        }
