"""LOW-SENSING BACKOFF (Figure 1 of the paper).

Per-slot behaviour of a packet ``u`` with window ``w_u(t)``:

1. With probability ``c·ln³(w_u)/w_u`` the packet *accesses* the channel
   (otherwise it sleeps and learns nothing).
2. Conditioned on accessing, it *sends* with probability ``1/(c·ln³ w_u)``
   and otherwise only listens.  The unconditional sending probability is
   therefore exactly ``1/w_u``.
3. If the packet accessed the channel and the slot was silent, the window
   backs on: ``w <- max(w / (1 + 1/(c·ln w)), w_min)``.
4. If the packet accessed the channel and the slot was noisy (collision or
   jamming), the window backs off: ``w <- w · (1 + 1/(c·ln w))``.
5. A slot containing a single successful transmission by *another* packet
   leaves the window unchanged.

Per Footnote 2, a sending packet does not listen separately: if it is still
in the system after sending, the slot was noisy, so the back-off rule applies
to unsuccessful sends as well.  Sending therefore costs one channel access.

The module also provides :class:`DecoupledLowSensingBackoff`, an ablation
variant (experiment A1) in which the listening and sending decisions are
drawn independently instead of sending only when already listening; the
paper points out (Section 5.6) that the coupling is what makes the energy
analysis go through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any

from repro.channel.actions import LISTEN, SEND, SLEEP, Action
from repro.channel.feedback import Feedback, FeedbackReport
from repro.core.parameters import LowSensingParameters
from repro.protocols.base import BackoffProtocol, PacketState


class LowSensingPacketState(PacketState):
    """Per-packet state of LOW-SENSING BACKOFF: the window ``w_u``.

    The listening and (conditional) sending probabilities are recomputed only
    when the window changes, because the decision phase is the inner loop of
    every simulation and the probabilities involve logarithms.
    """

    __slots__ = ("params", "_window", "_access_probability", "_send_given_access")

    def __init__(self, params: LowSensingParameters) -> None:
        self.params = params
        self._window = 0.0
        self._access_probability = 0.0
        self._send_given_access = 0.0
        self._set_window(float(params.w_min))

    # -- Window management ----------------------------------------------------

    @property
    def window(self) -> float:
        return self._window

    @window.setter
    def window(self, value: float) -> None:
        self._set_window(float(value))

    def _set_window(self, value: float) -> None:
        self._window = value
        self._access_probability = self.params.access_probability(value)
        self._send_given_access = self.params.send_probability_given_access(value)

    # -- Decision phase -----------------------------------------------------

    def decide(self, rng: Random) -> Action:
        if rng.random() >= self._access_probability:
            return SLEEP
        if rng.random() < self._send_given_access:
            return SEND
        return LISTEN

    # -- Feedback phase -------------------------------------------------------

    def observe(self, report: FeedbackReport, rng: Random) -> None:
        if report.feedback is None:
            return  # slept: no information, no update
        if report.succeeded:
            return  # departing; window is irrelevant
        if report.feedback is Feedback.EMPTY:
            self._set_window(self.params.backon(self._window))
        elif report.feedback is Feedback.NOISE:
            self._set_window(self.params.backoff(self._window))
        # Feedback.SUCCESS heard from another packet: no window change.

    # -- Introspection --------------------------------------------------------

    def sending_probability(self) -> float:
        return self._access_probability * self._send_given_access

    def access_probability(self) -> float:
        return self._access_probability

    def describe(self) -> dict[str, Any]:
        return {
            "window": self.window,
            "access_probability": self.access_probability(),
            "sending_probability": self.sending_probability(),
        }


@dataclass(frozen=True)
class LowSensingBackoff(BackoffProtocol):
    """LOW-SENSING BACKOFF protocol factory.

    Parameters
    ----------
    params:
        The algorithm constants; defaults to ``LowSensingParameters()``
        (c = 0.5, w_min = 32), which satisfies the paper's constraints and
        exhibits the predicted behaviour at laptop scale.
    """

    params: LowSensingParameters = field(default_factory=LowSensingParameters)

    name: str = "low-sensing"

    def new_packet_state(self) -> LowSensingPacketState:
        return LowSensingPacketState(self.params)

    def describe(self) -> dict[str, Any]:
        description: dict[str, Any] = {"name": self.name}
        description.update(self.params.describe())
        return description


class DecoupledLowSensingPacketState(LowSensingPacketState):
    """Ablation variant: listening and sending coins are independent.

    The unconditional send and listen probabilities match LOW-SENSING
    BACKOFF (``1/w`` and ``c·ln³(w)/w``), but a packet may send without
    listening-first in the coupled sense.  Because an unsuccessful send still
    reveals that the slot was noisy, the behavioural difference is subtle;
    the ablation quantifies whether the coupling matters empirically
    (the paper uses it to simplify the energy proof, Theorem 5.25).
    """

    def decide(self, rng: Random) -> Action:
        # The probabilities cached per window: ``params.send_probability``
        # is the same product of the same two values.
        if rng.random() < self._access_probability * self._send_given_access:
            return SEND
        if rng.random() < self._access_probability:
            return LISTEN
        return SLEEP


@dataclass(frozen=True)
class DecoupledLowSensingBackoff(LowSensingBackoff):
    """Factory for the decoupled ablation variant (experiment A1)."""

    name: str = "low-sensing-decoupled"

    def new_packet_state(self) -> DecoupledLowSensingPacketState:
        return DecoupledLowSensingPacketState(self.params)
