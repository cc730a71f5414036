"""Protocol interface shared by LOW-SENSING BACKOFF and all baselines.

The interface mirrors the paper's model exactly: a packet is an independent
agent; in every slot it chooses to sleep, listen, or send, using only its own
internal state and private randomness; at the end of the slot it receives a
:class:`~repro.channel.feedback.FeedbackReport` (ternary feedback if it
accessed the channel, nothing if it slept) and may update its state.

Packets are indistinguishable: the state object receives no identity, no
global clock, and no information about other packets.
"""

from __future__ import annotations

import abc
from random import Random
from typing import Any

from repro.channel.actions import Action
from repro.channel.feedback import FeedbackReport


class PacketState(abc.ABC):
    """Per-packet protocol state.

    Subclasses hold whatever state the protocol needs (window size, sending
    probability, collision count, ...) and implement the two phase methods
    called by the engine every slot.
    """

    @abc.abstractmethod
    def decide(self, rng: Random) -> Action:
        """Choose this packet's action for the current slot.

        Parameters
        ----------
        rng:
            The packet's private random source.  Implementations must draw
            all randomness from it so executions are reproducible per seed.
        """

    @abc.abstractmethod
    def observe(self, report: FeedbackReport, rng: Random) -> None:
        """Update state from the end-of-slot feedback.

        ``report.feedback`` is ``None`` when the packet slept.  The engine
        removes a packet that succeeded before the next slot, but ``observe``
        is still called on it so protocols can keep statistics consistent.
        """

    def sending_probability(self) -> float | None:
        """The marginal probability that this packet sends in the next slot.

        Optional; used by contention instrumentation and by adaptive
        adversaries that (per the adaptive-adversary model) can inspect full
        internal state.  Protocols for which the quantity is awkward may
        return ``None``.
        """
        return None

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of the state, for traces and debugging."""
        return {}


class BackoffProtocol(abc.ABC):
    """Factory for per-packet protocol state.

    A protocol object is immutable configuration (parameters only); all
    mutable state lives in the :class:`PacketState` objects it creates, one
    per packet.  Whether the lockstep engine runs a protocol is decided by
    its exact type's entry in ``PROTOCOL_KERNELS``
    (:mod:`repro.sim.vector.protocols`), so a subclass never inherits a
    kernel that may no longer describe it.
    """

    #: Short machine-readable protocol name (used by the registry and in
    #: experiment reports).
    name: str = "abstract"

    @abc.abstractmethod
    def new_packet_state(self) -> PacketState:
        """Create fresh state for a newly injected packet."""

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of the protocol parameters."""
        return {"name": self.name}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{key}={value!r}" for key, value in self.describe().items() if key != "name"
        )
        return f"{type(self).__name__}({params})"
