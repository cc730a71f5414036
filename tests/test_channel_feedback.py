"""Tests for the ternary feedback alphabet and slot outcomes."""

import pytest

from repro.channel.feedback import (
    LISTEN_REPORTS,
    SEND_REPORTS,
    SLEEP_REPORT,
    Feedback,
    FeedbackReport,
    SlotOutcome,
)

#: ``(feedback, sent, succeeded)`` of the report a sender and a listener
#: hear, by slot outcome: a success slot's one sender is its winner.
EXPECTED_REPORTS = {
    SlotOutcome.EMPTY: ((Feedback.EMPTY, True, False), (Feedback.EMPTY, False, False)),
    SlotOutcome.SUCCESS: ((Feedback.SUCCESS, True, True), (Feedback.SUCCESS, False, False)),
    SlotOutcome.COLLISION: ((Feedback.NOISE, True, False), (Feedback.NOISE, False, False)),
    SlotOutcome.JAMMED: ((Feedback.NOISE, True, False), (Feedback.NOISE, False, False)),
}


def fields(report: FeedbackReport) -> tuple:
    return report.feedback, report.sent, report.succeeded


class TestFeedback:
    def test_alphabet_has_exactly_three_symbols(self):
        assert {f.name for f in Feedback} == {"EMPTY", "SUCCESS", "NOISE"}


class TestSlotOutcome:
    def test_empty_maps_to_empty_feedback(self):
        assert SlotOutcome.EMPTY.feedback is Feedback.EMPTY

    def test_success_maps_to_success_feedback(self):
        assert SlotOutcome.SUCCESS.feedback is Feedback.SUCCESS

    def test_collision_maps_to_noise(self):
        assert SlotOutcome.COLLISION.feedback is Feedback.NOISE

    def test_jammed_maps_to_noise(self):
        # A listener cannot distinguish jamming from a collision.
        assert SlotOutcome.JAMMED.feedback is Feedback.NOISE


class TestFeedbackReport:
    def test_sender_report_requires_feedback(self):
        with pytest.raises(ValueError):
            FeedbackReport(feedback=None, sent=True)

    def test_success_requires_sending(self):
        with pytest.raises(ValueError):
            FeedbackReport(feedback=Feedback.SUCCESS, sent=False, succeeded=True)

    def test_sleep_report_learns_nothing(self):
        assert SLEEP_REPORT.feedback is None
        assert not SLEEP_REPORT.sent
        assert not SLEEP_REPORT.succeeded

    def test_listener_report(self):
        report = FeedbackReport(feedback=Feedback.EMPTY, sent=False)
        assert report.feedback is Feedback.EMPTY
        assert not report.succeeded

    def test_successful_sender_report(self):
        report = FeedbackReport(feedback=Feedback.SUCCESS, sent=True, succeeded=True)
        assert report.sent and report.succeeded

    def test_reports_are_immutable(self):
        report = FeedbackReport(feedback=Feedback.NOISE, sent=True)
        with pytest.raises(AttributeError):
            report.sent = False


class TestSlotReports:
    def test_one_report_per_outcome(self):
        assert set(SEND_REPORTS) == set(LISTEN_REPORTS) == set(SlotOutcome)

    @pytest.mark.parametrize("outcome", list(SlotOutcome))
    def test_send_report(self, outcome):
        assert fields(SEND_REPORTS[outcome]) == EXPECTED_REPORTS[outcome][0]

    @pytest.mark.parametrize("outcome", list(SlotOutcome))
    def test_listen_report(self, outcome):
        assert fields(LISTEN_REPORTS[outcome]) == EXPECTED_REPORTS[outcome][1]
