"""Truncated sawtooth backoff (re-backoff), after Bender et al. [26, 27].

"Scaling exponential backoff" (SODA'16 / JACM'19) achieves constant expected
throughput with polylog sending attempts by running repeated *sawtooth*
phases: within a phase the packet's window is repeatedly halved (backing on
aggressively), and across phases the starting window grows.  The variant
implemented here is a faithful, simplified form of that idea under the same
per-packet API used by every other protocol in this library:

* a packet keeps a phase size ``W`` (starting at ``initial_window``) and a
  current window ``w`` initialised to ``W`` at the start of each phase;
* in every slot it sends with probability ``1/w``;
* after every ``monitor_interval`` slots spent at the current window, the
  window halves (the sawtooth's downward ramp); when the window would drop
  below 2, the phase ends, ``W`` doubles, and the next sawtooth begins.

The protocol is send-only (it never listens), so like binary exponential
backoff it is listening-efficient by construction, but unlike BEB it sweeps
its sending probability *upwards* within each phase which is what restores
constant throughput on batches.  It serves as the strongest send-only
baseline in E1/E8.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any

from repro.channel.actions import SEND, SLEEP, ActionKind
from repro.channel.feedback import FeedbackReport
from repro.protocols.base import BackoffProtocol, PacketState


class SawtoothPacketState(PacketState):
    """Per-packet state: phase size, current window, slots at this window."""

    __slots__ = ("phase_window", "window", "_slots_at_window", "_initial_window")

    def __init__(self, initial_window: float) -> None:
        self._initial_window = max(2.0, float(initial_window))
        self.phase_window = self._initial_window
        self.window = self.phase_window
        self._slots_at_window = 0

    def decide(self, rng: Random) -> ActionKind:
        if rng.random() < 1.0 / self.window:
            return SEND
        return SLEEP

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        if report.succeeded:
            return
        self._slots_at_window += 1
        # Spend roughly `window` slots at each window level before halving,
        # so a full sawtooth of phase size W lasts Θ(W) slots.
        if self._slots_at_window >= self.window:
            self._slots_at_window = 0
            self.window /= 2.0
            if self.window < 2.0:
                self.phase_window *= 2.0
                self.window = self.phase_window

    def sending_probability(self) -> float:
        return 1.0 / self.window

    def describe(self) -> dict[str, Any]:
        return {"phase_window": self.phase_window, "window": self.window}


@dataclass(frozen=True)
class SawtoothBackoff(BackoffProtocol):
    """Truncated sawtooth (re-backoff) protocol.

    Parameters
    ----------
    initial_window:
        Size of the first sawtooth phase (and the window it starts at).
    """

    initial_window: float = 4.0

    name: str = "sawtooth"

    def __post_init__(self) -> None:
        if self.initial_window < 2.0:
            raise ValueError("initial_window must be at least 2")

    def new_packet_state(self) -> SawtoothPacketState:
        return SawtoothPacketState(self.initial_window)

    def describe(self) -> dict[str, Any]:
        return {"name": self.name, "initial_window": self.initial_window}
