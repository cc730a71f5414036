"""Slot resolution for the multiple-access channel.

The channel is memoryless: each slot is resolved independently from the
number of transmitting packets and the adversary's jamming decision.  The
rules are exactly those of Section 1.1 of the paper:

* no senders, not jammed           -> the slot is empty (silence);
* exactly one sender, not jammed   -> that packet succeeds and departs;
* two or more senders              -> collision; every sender stays;
* jammed                           -> the slot is full and noisy no matter
                                      how many packets sent; no one succeeds.

The vector engine applies the same rule to a whole batch at once, as
``min(senders, 2)`` with jammed slots set to code 3.
"""

from __future__ import annotations

from repro.channel.feedback import SlotOutcome


def resolve_slot(num_senders: int, jammed: bool) -> SlotOutcome:
    """The outcome of a slot with ``num_senders`` senders."""
    if jammed:
        return SlotOutcome.JAMMED
    if num_senders == 0:
        return SlotOutcome.EMPTY
    if num_senders == 1:
        return SlotOutcome.SUCCESS
    return SlotOutcome.COLLISION
