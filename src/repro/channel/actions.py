"""Per-slot packet actions.

In every slot a packet takes one of three actions (Section 1.1): sleep,
listen, or send.  Per Footnote 2 and Section 3 of the paper, a sending
packet does not need to listen separately to learn the channel state — if it
is still in the system after sending, the slot was noisy — so sending counts
as a single channel access.

The three decisions are the members of :class:`ActionKind`, also named
:data:`SLEEP`, :data:`LISTEN` and :data:`SEND` here; packet states return
them directly.
"""

from __future__ import annotations

import enum


class ActionKind(enum.Enum):
    """The three per-slot actions of the ternary feedback model."""

    SLEEP = "sleep"
    LISTEN = "listen"
    SEND = "send"


SLEEP = ActionKind.SLEEP
LISTEN = ActionKind.LISTEN
SEND = ActionKind.SEND
