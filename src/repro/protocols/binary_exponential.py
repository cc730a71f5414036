"""Binary exponential backoff (Metcalfe–Boggs style, probabilistic form).

The classical oblivious baseline the paper contrasts against in Section 1.
A packet maintains a window ``w``; in every slot it sends with probability
``1/w`` and otherwise sleeps.  When a transmission collides (the packet sent
but did not succeed) the window doubles.  The packet never listens, so it
receives no feedback in slots where it stays silent — this is exactly the
"oblivious" property that limits BEB to O(1/ln N) throughput on batch
arrivals [Bender et al., SPAA'05], which experiment E1 reproduces.

Energy accounting: every send is one channel access; there are no listens.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from repro.channel.actions import SEND, SLEEP, Action
from repro.channel.feedback import FeedbackReport
from repro.protocols.base import BackoffProtocol, PacketState


class BinaryExponentialPacketState(PacketState):
    """Per-packet state: the current window size."""

    __slots__ = ("window", "_initial_window", "_backoff_factor", "_max_window")

    def __init__(
        self, initial_window: float, backoff_factor: float, max_window: float | None
    ) -> None:
        self.window = float(initial_window)
        self._initial_window = float(initial_window)
        self._backoff_factor = float(backoff_factor)
        self._max_window = max_window

    def decide(self, rng: Random) -> Action:
        if rng.random() < 1.0 / self.window:
            return SEND
        return SLEEP

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        if report.sent and not report.succeeded:
            self.window *= self._backoff_factor
            if self._max_window is not None:
                self.window = min(self.window, self._max_window)

    def sending_probability(self) -> float:
        return 1.0 / self.window

    def describe(self) -> dict[str, Any]:
        return {"window": self.window}


@dataclass(frozen=True)
class BinaryExponentialBackoff(BackoffProtocol):
    """Binary exponential backoff with configurable base window and factor.

    Parameters
    ----------
    initial_window:
        Window size assigned to a newly injected packet; the classical
        protocol uses 1 or 2.
    backoff_factor:
        Multiplicative window growth applied after each collision; 2 gives
        *binary* exponential backoff.
    max_window:
        Optional cap on the window (a "truncated" BEB as used by Ethernet);
        ``None`` means unbounded.
    """

    initial_window: float = 2.0
    backoff_factor: float = 2.0
    max_window: float | None = None

    name: str = "binary-exponential"

    def __post_init__(self) -> None:
        if self.initial_window < 1.0:
            raise ValueError("initial_window must be at least 1")
        if self.backoff_factor <= 1.0:
            raise ValueError("backoff_factor must exceed 1")
        if self.max_window is not None and self.max_window < self.initial_window:
            raise ValueError("max_window must be at least initial_window")

    def new_packet_state(self) -> BinaryExponentialPacketState:
        return BinaryExponentialPacketState(
            initial_window=self.initial_window,
            backoff_factor=self.backoff_factor,
            max_window=self.max_window,
        )

    def describe(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "initial_window": self.initial_window,
            "backoff_factor": self.backoff_factor,
            "max_window": self.max_window,
        }
