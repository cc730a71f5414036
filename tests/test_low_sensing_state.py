"""Unit tests for the LOW-SENSING BACKOFF per-packet state machine."""

from random import Random

import pytest

from repro.channel.actions import SEND, SLEEP
from repro.channel.feedback import SLEEP_REPORT, Feedback, FeedbackReport
from repro.core.low_sensing import (
    DecoupledLowSensingBackoff,
    LowSensingBackoff,
    LowSensingPacketState,
)
from repro.core.parameters import LowSensingParameters


def listen_report(feedback: Feedback) -> FeedbackReport:
    return FeedbackReport(feedback=feedback, sent=False)


class TestInitialState:
    def test_new_packet_starts_at_w_min(self):
        protocol = LowSensingBackoff()
        state = protocol.new_packet_state()
        assert state.window == protocol.params.w_min

    def test_states_are_independent(self):
        protocol = LowSensingBackoff()
        a, b = protocol.new_packet_state(), protocol.new_packet_state()
        a.observe(listen_report(Feedback.NOISE), Random(0))
        assert a.window > b.window


class TestWindowUpdates:
    def setup_method(self):
        self.params = LowSensingParameters(c=0.5, w_min=32.0)
        self.state = LowSensingPacketState(self.params)
        self.rng = Random(0)

    def test_noise_backs_off(self):
        before = self.state.window
        self.state.observe(listen_report(Feedback.NOISE), self.rng)
        assert self.state.window == pytest.approx(self.params.backoff(before))

    def test_silence_backs_on_but_not_below_w_min(self):
        self.state.observe(listen_report(Feedback.EMPTY), self.rng)
        assert self.state.window == self.params.w_min

    def test_silence_after_noise_reduces_window(self):
        self.state.observe(listen_report(Feedback.NOISE), self.rng)
        grown = self.state.window
        self.state.observe(listen_report(Feedback.EMPTY), self.rng)
        assert self.state.window < grown

    def test_success_heard_from_other_packet_changes_nothing(self):
        self.state.observe(listen_report(Feedback.NOISE), self.rng)
        before = self.state.window
        self.state.observe(listen_report(Feedback.SUCCESS), self.rng)
        assert self.state.window == before

    def test_sleeping_changes_nothing(self):
        self.state.observe(listen_report(Feedback.NOISE), self.rng)
        before = self.state.window
        self.state.observe(SLEEP_REPORT, self.rng)
        assert self.state.window == before

    def test_own_success_changes_nothing(self):
        report = FeedbackReport(feedback=Feedback.SUCCESS, sent=True, succeeded=True)
        before = self.state.window
        self.state.observe(report, self.rng)
        assert self.state.window == before

    def test_failed_send_backs_off(self):
        # A sender that remains in the system experienced a noisy slot.
        report = FeedbackReport(feedback=Feedback.NOISE, sent=True, succeeded=False)
        before = self.state.window
        self.state.observe(report, self.rng)
        assert self.state.window > before

    def test_window_never_drops_below_w_min(self):
        for _ in range(50):
            self.state.observe(listen_report(Feedback.EMPTY), self.rng)
        assert self.state.window >= self.params.w_min


class TestDecisionDistribution:
    """The empirical action frequencies must match the Figure 1 probabilities."""

    def test_send_frequency_is_one_over_w(self):
        params = LowSensingParameters(c=0.5, w_min=32.0)
        state = LowSensingPacketState(params)
        rng = Random(42)
        trials = 60_000
        sends = sum(1 for _ in range(trials) if state.decide(rng) is SEND)
        expected = trials / params.w_min
        assert sends == pytest.approx(expected, rel=0.2)

    def test_access_frequency_matches_formula(self):
        params = LowSensingParameters(c=0.5, w_min=32.0)
        state = LowSensingPacketState(params)
        rng = Random(43)
        trials = 60_000
        accesses = sum(
            1 for _ in range(trials) if state.decide(rng) is not SLEEP
        )
        expected = trials * params.access_probability(params.w_min)
        assert accesses == pytest.approx(expected, rel=0.1)

    def test_cached_probabilities_follow_window(self):
        state = LowSensingPacketState(LowSensingParameters())
        rng = Random(0)
        p_before = state.access_probability()
        state.observe(listen_report(Feedback.NOISE), rng)
        assert state.access_probability() < p_before
        assert state.sending_probability() == pytest.approx(1.0 / state.window)

    def test_describe_reports_window_and_probabilities(self):
        state = LowSensingPacketState(LowSensingParameters())
        description = state.describe()
        assert description["window"] == state.window
        assert 0.0 < description["access_probability"] <= 1.0


class TestDecoupledVariant:
    def test_send_frequency_matches_coupled_variant(self):
        params = LowSensingParameters(c=0.5, w_min=32.0)
        coupled = LowSensingBackoff(params=params).new_packet_state()
        decoupled = DecoupledLowSensingBackoff(params=params).new_packet_state()
        rng_a, rng_b = Random(7), Random(7)
        trials = 60_000
        sends_coupled = sum(1 for _ in range(trials) if coupled.decide(rng_a) is SEND)
        sends_decoupled = sum(
            1 for _ in range(trials) if decoupled.decide(rng_b) is SEND
        )
        assert sends_decoupled == pytest.approx(sends_coupled, rel=0.3)

    def test_protocol_names_differ(self):
        assert DecoupledLowSensingBackoff().name != LowSensingBackoff().name


class TestProtocolFactory:
    def test_describe_includes_constants(self):
        description = LowSensingBackoff().describe()
        assert description["name"] == "low-sensing"
        assert "c" in description and "w_min" in description
