"""Tests for slot resolution and per-slot actions."""

from repro.channel.actions import LISTEN, SEND, SLEEP, ActionKind
from repro.channel.channel import resolve_slot
from repro.channel.feedback import Feedback, SlotOutcome


class TestAction:
    def test_kinds_are_distinct(self):
        kinds = {SLEEP, LISTEN, SEND}
        assert len(kinds) == 3
        assert kinds == set(ActionKind)


class TestChannelResolution:
    def test_no_senders_is_empty(self):
        outcome = resolve_slot(0, jammed=False)
        assert outcome is SlotOutcome.EMPTY
        assert outcome.feedback is Feedback.EMPTY

    def test_single_sender_succeeds(self):
        outcome = resolve_slot(1, jammed=False)
        assert outcome is SlotOutcome.SUCCESS
        assert outcome.feedback is Feedback.SUCCESS

    def test_two_senders_collide(self):
        outcome = resolve_slot(2, jammed=False)
        assert outcome is SlotOutcome.COLLISION
        assert outcome.feedback is Feedback.NOISE

    def test_many_senders_collide(self):
        assert resolve_slot(10, jammed=False) is SlotOutcome.COLLISION

    def test_jammed_empty_slot_is_noisy(self):
        outcome = resolve_slot(0, jammed=True)
        assert outcome is SlotOutcome.JAMMED
        assert outcome.feedback is Feedback.NOISE

    def test_jamming_destroys_single_sender(self):
        # A packet that sends during a jammed slot collides and stays.
        assert resolve_slot(1, jammed=True) is SlotOutcome.JAMMED

    def test_jamming_with_many_senders(self):
        assert resolve_slot(3, jammed=True) is SlotOutcome.JAMMED
