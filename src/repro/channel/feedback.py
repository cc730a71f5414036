"""Ternary feedback alphabet and slot outcomes.

The paper's ternary feedback model (Section 1.1) lets a listening packet
learn whether a slot was (0) empty, (1) successful, or (2+) noisy.  A jammed
slot is always full and noisy regardless of how many packets transmitted, and
listeners cannot distinguish jamming noise from collision noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Feedback(enum.Enum):
    """What a listener hears on the channel during a slot.

    ``EMPTY``    — no packet transmitted and the slot was not jammed.
    ``SUCCESS``  — exactly one packet transmitted and the slot was not jammed.
    ``NOISE``    — two or more packets transmitted, or the slot was jammed.
    """

    EMPTY = 0
    SUCCESS = 1
    NOISE = 2


class SlotOutcome(enum.Enum):
    """Ground-truth classification of a slot, for metrics and traces.

    Unlike :class:`Feedback`, the outcome distinguishes a jammed slot from a
    collision between packets, because throughput accounting with jamming
    (Section 1.1, "Extending to adversarial jamming") treats jammed slots as
    slots the algorithm could not have used.
    """

    EMPTY = "empty"
    SUCCESS = "success"
    COLLISION = "collision"
    JAMMED = "jammed"

    @property
    def feedback(self) -> Feedback:
        """The ternary feedback that listeners hear for this outcome."""
        if self is SlotOutcome.EMPTY:
            return Feedback.EMPTY
        if self is SlotOutcome.SUCCESS:
            return Feedback.SUCCESS
        return Feedback.NOISE


@dataclass(frozen=True, slots=True)
class FeedbackReport:
    """Feedback delivered to a single packet at the end of a slot.

    Attributes
    ----------
    feedback:
        The ternary channel feedback, or ``None`` if the packet slept and
        therefore learned nothing about the slot.
    sent:
        Whether this packet transmitted during the slot.
    succeeded:
        Whether this packet's transmission was the unique, unjammed one.
    """

    feedback: Feedback | None
    sent: bool = False
    succeeded: bool = False

    def __post_init__(self) -> None:
        if self.succeeded and not self.sent:
            raise ValueError("a packet cannot succeed without sending")
        if self.sent and self.feedback is None:
            raise ValueError("a sender always learns the state of the slot")


#: Report delivered to a sleeping packet: it learns nothing.
SLEEP_REPORT = FeedbackReport(feedback=None, sent=False, succeeded=False)

#: Report delivered to each sender, by slot outcome.  A success slot has
#: one sender, the winner; no one sends in an empty slot.
SEND_REPORTS = {
    outcome: FeedbackReport(
        feedback=outcome.feedback,
        sent=True,
        succeeded=outcome is SlotOutcome.SUCCESS,
    )
    for outcome in SlotOutcome
}

#: Report delivered to each listener, by slot outcome.
LISTEN_REPORTS = {
    outcome: FeedbackReport(feedback=outcome.feedback, sent=False)
    for outcome in SlotOutcome
}
