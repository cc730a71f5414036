"""Tests for slot resolution and per-slot actions."""

from repro.channel.actions import Action, ActionKind
from repro.channel.channel import resolve_slot
from repro.channel.feedback import Feedback, SlotOutcome


class TestAction:
    def test_sleep_does_not_access_channel(self):
        assert not Action.sleep().accesses_channel

    def test_listen_accesses_channel(self):
        assert Action.listen().accesses_channel

    def test_send_accesses_channel(self):
        assert Action.send().accesses_channel

    def test_kind_predicates(self):
        assert Action.send().is_send
        assert Action.listen().is_listen
        assert Action.sleep().is_sleep
        assert not Action.send().is_listen

    def test_constructors_return_singletons(self):
        assert Action.sleep() is Action.sleep()
        assert Action.send() is Action.send()

    def test_kinds_are_distinct(self):
        kinds = {Action.sleep().kind, Action.listen().kind, Action.send().kind}
        assert kinds == {ActionKind.SLEEP, ActionKind.LISTEN, ActionKind.SEND}


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
