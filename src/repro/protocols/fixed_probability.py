"""Fixed-probability senders (slotted ALOHA).

Two related baselines:

* :class:`FixedProbabilityProtocol` — every packet sends with the same fixed
  probability ``p`` in every slot and never adapts.  With ``p = 1/n`` for a
  batch of ``n`` packets this is the genie-assisted slotted ALOHA whose
  throughput approaches ``1/e`` (the classical benchmark the paper mentions
  when discussing Chang–Jin–Pettie).  Without knowledge of ``n`` the fixed
  probability is badly mismatched, which is exactly why adaptive protocols
  exist; the experiments include it to anchor the throughput axis.

* :class:`SlottedAloha` — a convenience subclass with the textbook default
  ``p = 1/e``-flavoured configuration (``p = 0.1``), included to have a
  deliberately naive contender in comparison tables.

Both are send-only: they never listen, so channel accesses equal sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from repro.channel.actions import SEND, SLEEP, ActionKind
from repro.channel.feedback import FeedbackReport
from repro.protocols.base import BackoffProtocol, PacketState


class FixedProbabilityPacketState(PacketState):
    """Per-packet state: just the (constant) sending probability."""

    __slots__ = ("probability",)

    def __init__(self, probability: float) -> None:
        self.probability = float(probability)

    def decide(self, rng: Random) -> ActionKind:
        if rng.random() < self.probability:
            return SEND
        return SLEEP

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        # Oblivious: feedback never changes the sending probability.
        return None

    def sending_probability(self) -> float:
        return self.probability

    def describe(self) -> dict[str, Any]:
        return {"probability": self.probability}


@dataclass(frozen=True)
class FixedProbabilityProtocol(BackoffProtocol):
    """Send with a constant probability ``probability`` in every slot."""

    probability: float = 0.05

    name: str = "fixed-probability"

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")

    def new_packet_state(self) -> FixedProbabilityPacketState:
        return FixedProbabilityPacketState(self.probability)

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "probability": self.probability}

    @classmethod
    def tuned_for(cls, expected_packets: int) -> "FixedProbabilityProtocol":
        """A genie-tuned instance with ``p = 1/expected_packets``.

        This is the idealised slotted-ALOHA configuration used in E1 to show
        the ``1/e`` ceiling that adaptive protocols approach without knowing
        the batch size.
        """
        if expected_packets < 1:
            raise ValueError("expected_packets must be positive")
        return cls(probability=1.0 / expected_packets)


@dataclass(frozen=True)
class SlottedAloha(FixedProbabilityProtocol):
    """Slotted ALOHA with a fixed, deliberately untuned sending probability."""

    probability: float = 0.1
    name: str = "slotted-aloha"
