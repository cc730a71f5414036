"""Shared multiple-access channel substrate.

This subpackage implements the communication model from Section 1.1 of the
paper: time is divided into synchronized slots, each slot is resolved from
the number of transmitting packets plus the adversary's jamming decision,
and listeners receive ternary feedback (empty / success / noisy).

The main entry points are:

* :class:`repro.channel.feedback.Feedback` — the ternary feedback alphabet.
* :class:`repro.channel.actions.ActionKind` — what a packet does in a slot.
* :func:`repro.channel.channel.resolve_slot` — the outcome of one slot.
* :data:`repro.channel.feedback.SEND_REPORTS` and
  :data:`~repro.channel.feedback.LISTEN_REPORTS` — the report each sender
  and listener receives, by outcome.
"""

from repro.channel.actions import ActionKind
from repro.channel.channel import resolve_slot
from repro.channel.feedback import Feedback, SlotOutcome

__all__ = [
    "ActionKind",
    "Feedback",
    "SlotOutcome",
    "resolve_slot",
]
