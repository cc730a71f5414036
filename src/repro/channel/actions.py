"""Per-slot packet actions.

In every slot a packet takes one of three actions (Section 1.1): sleep,
listen, or send.  Per Footnote 2 and Section 3 of the paper, a sending
packet does not need to listen separately to learn the channel state — if it
is still in the system after sending, the slot was noisy — so sending counts
as a single channel access.

The three decisions are the module's singletons :data:`SLEEP`,
:data:`LISTEN` and :data:`SEND`; packet states return them directly, and
the engine reads only an action's ``kind``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class ActionKind(enum.Enum):
    """The three per-slot actions of the ternary feedback model."""

    SLEEP = "sleep"
    LISTEN = "listen"
    SEND = "send"


@dataclass(frozen=True, slots=True)
class Action:
    """A packet's decision for a single slot.

    Return the singletons :data:`SLEEP`, :data:`LISTEN` and :data:`SEND`
    rather than instantiating directly; the class-level constructors
    :meth:`sleep`, :meth:`listen` and :meth:`send` return the same objects.
    """

    kind: ActionKind

    @classmethod
    def sleep(cls) -> "Action":
        """The packet neither sends nor listens; it learns nothing."""
        return SLEEP

    @classmethod
    def listen(cls) -> "Action":
        """The packet listens and learns the slot's ternary feedback."""
        return LISTEN

    @classmethod
    def send(cls) -> "Action":
        """The packet transmits (and implicitly learns the slot state)."""
        return SEND

    @property
    def accesses_channel(self) -> bool:
        """True when the action consumes a channel access (listen or send)."""
        return self.kind is not ActionKind.SLEEP

    @property
    def is_send(self) -> bool:
        return self.kind is ActionKind.SEND

    @property
    def is_listen(self) -> bool:
        return self.kind is ActionKind.LISTEN

    @property
    def is_sleep(self) -> bool:
        return self.kind is ActionKind.SLEEP


SLEEP = Action(ActionKind.SLEEP)
LISTEN = Action(ActionKind.LISTEN)
SEND = Action(ActionKind.SEND)
