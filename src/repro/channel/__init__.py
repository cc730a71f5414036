"""Shared multiple-access channel substrate.

This subpackage implements the communication model from Section 1.1 of the
paper: time is divided into synchronized slots, each slot is resolved from
the set of transmitting packets plus the adversary's jamming decision, and
listeners receive ternary feedback (empty / success / noisy).

The main entry points are:

* :class:`repro.channel.feedback.Feedback` — the ternary feedback alphabet.
* :class:`repro.channel.actions.Action` — what a packet does in a slot.
* :class:`repro.channel.channel.MultipleAccessChannel` — resolves one slot.
* :class:`repro.channel.trace.ExecutionTrace` — a recorded execution.
"""

from repro.channel.actions import Action, ActionKind
from repro.channel.channel import MultipleAccessChannel, SlotResolution
from repro.channel.feedback import Feedback, SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord

__all__ = [
    "Action",
    "ActionKind",
    "ExecutionTrace",
    "Feedback",
    "MultipleAccessChannel",
    "SlotOutcome",
    "SlotRecord",
    "SlotResolution",
]
