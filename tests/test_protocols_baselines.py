"""Unit tests for the baseline protocols (BEB, polynomial, ALOHA, sawtooth, MW)."""

from random import Random

import pytest

from repro.channel.actions import LISTEN, SEND, SLEEP
from repro.channel.feedback import Feedback, FeedbackReport
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff


def failed_send() -> FeedbackReport:
    return FeedbackReport(feedback=Feedback.NOISE, sent=True, succeeded=False)


def heard(feedback: Feedback) -> FeedbackReport:
    return FeedbackReport(feedback=feedback, sent=False)


class TestBinaryExponentialBackoff:
    def test_collision_doubles_window(self):
        state = BinaryExponentialBackoff(initial_window=2.0).new_packet_state()
        state.observe(failed_send(), Random(0))
        assert state.window == 4.0
        state.observe(failed_send(), Random(0))
        assert state.window == 8.0

    def test_never_listens(self):
        state = BinaryExponentialBackoff().new_packet_state()
        rng = Random(3)
        assert not any(state.decide(rng) is LISTEN for _ in range(5000))

    def test_oblivious_to_channel_feedback(self):
        state = BinaryExponentialBackoff().new_packet_state()
        before = state.window
        state.observe(heard(Feedback.NOISE), Random(0))
        state.observe(heard(Feedback.EMPTY), Random(0))
        assert state.window == before

    def test_window_cap(self):
        protocol = BinaryExponentialBackoff(initial_window=2.0, max_window=8.0)
        state = protocol.new_packet_state()
        for _ in range(10):
            state.observe(failed_send(), Random(0))
        assert state.window == 8.0

    def test_send_frequency_matches_window(self):
        state = BinaryExponentialBackoff(initial_window=4.0).new_packet_state()
        rng = Random(11)
        trials = 40_000
        sends = sum(1 for _ in range(trials) if state.decide(rng) is SEND)
        assert sends == pytest.approx(trials / 4.0, rel=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(initial_window=0.5)
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(backoff_factor=1.0)
        with pytest.raises(ValueError):
            BinaryExponentialBackoff(initial_window=4.0, max_window=2.0)


class TestPolynomialBackoff:
    def test_window_grows_polynomially_with_collisions(self):
        protocol = PolynomialBackoff(initial_window=2.0, degree=2.0)
        state = protocol.new_packet_state()
        assert state.window == 2.0
        state.observe(failed_send(), Random(0))
        assert state.window == 2.0 * 4  # (1+1)^2
        state.observe(failed_send(), Random(0))
        assert state.window == 2.0 * 9  # (2+1)^2

    def test_successful_send_does_not_increase_collisions(self):
        state = PolynomialBackoff().new_packet_state()
        report = FeedbackReport(feedback=Feedback.SUCCESS, sent=True, succeeded=True)
        state.observe(report, Random(0))
        assert state.collisions == 0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PolynomialBackoff(degree=0.0)
        with pytest.raises(ValueError):
            PolynomialBackoff(initial_window=0.0)


class TestFixedProbability:
    def test_probability_never_changes(self):
        state = FixedProbabilityProtocol(probability=0.2).new_packet_state()
        state.observe(failed_send(), Random(0))
        state.observe(heard(Feedback.EMPTY), Random(0))
        assert state.sending_probability() == 0.2

    def test_send_frequency(self):
        state = FixedProbabilityProtocol(probability=0.1).new_packet_state()
        rng = Random(2)
        trials = 40_000
        sends = sum(1 for _ in range(trials) if state.decide(rng) is SEND)
        assert sends == pytest.approx(trials * 0.1, rel=0.1)

    def test_tuned_for_batch(self):
        protocol = FixedProbabilityProtocol.tuned_for(50)
        assert protocol.probability == pytest.approx(1.0 / 50.0)

    def test_tuned_for_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FixedProbabilityProtocol.tuned_for(0)

    def test_slotted_aloha_default(self):
        assert SlottedAloha().name == "slotted-aloha"
        assert 0.0 < SlottedAloha().probability <= 1.0

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FixedProbabilityProtocol(probability=0.0)
        with pytest.raises(ValueError):
            FixedProbabilityProtocol(probability=1.5)


class TestSawtooth:
    def test_window_halves_down_the_ramp(self):
        protocol = SawtoothBackoff(initial_window=16.0)
        state = protocol.new_packet_state()
        rng = Random(0)
        # Spend enough (non-success) slots to trigger at least one halving.
        for _ in range(20):
            state.observe(heard(Feedback.NOISE), rng)
        assert state.window < 16.0

    def test_phase_doubles_after_ramp_bottom(self):
        protocol = SawtoothBackoff(initial_window=4.0)
        state = protocol.new_packet_state()
        rng = Random(0)
        for _ in range(50):
            state.observe(heard(Feedback.NOISE), rng)
        assert state.phase_window >= 8.0

    def test_never_listens(self):
        state = SawtoothBackoff().new_packet_state()
        rng = Random(1)
        assert not any(state.decide(rng) is LISTEN for _ in range(2000))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SawtoothBackoff(initial_window=1.0)


class TestFullSensingMW:
    def test_always_accesses_channel(self):
        state = FullSensingMultiplicativeWeights().new_packet_state()
        rng = Random(9)
        assert all(state.decide(rng) is not SLEEP for _ in range(2000))

    def test_silence_increases_probability(self):
        state = FullSensingMultiplicativeWeights(initial_probability=0.1).new_packet_state()
        state.observe(heard(Feedback.EMPTY), Random(0))
        assert state.probability > 0.1

    def test_noise_decreases_probability(self):
        state = FullSensingMultiplicativeWeights(initial_probability=0.1).new_packet_state()
        state.observe(heard(Feedback.NOISE), Random(0))
        assert state.probability < 0.1

    def test_probability_clamped_to_bounds(self):
        protocol = FullSensingMultiplicativeWeights(
            initial_probability=0.4, p_min=0.01, p_max=0.5
        )
        state = protocol.new_packet_state()
        rng = Random(0)
        for _ in range(200):
            state.observe(heard(Feedback.EMPTY), rng)
        assert state.probability <= 0.5
        for _ in range(2000):
            state.observe(heard(Feedback.NOISE), rng)
        assert state.probability >= 0.01

    def test_other_packets_success_changes_nothing(self):
        state = FullSensingMultiplicativeWeights(initial_probability=0.2).new_packet_state()
        state.observe(heard(Feedback.SUCCESS), Random(0))
        assert state.probability == 0.2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            FullSensingMultiplicativeWeights(increase=1.0)
        with pytest.raises(ValueError):
            FullSensingMultiplicativeWeights(p_min=0.5, p_max=0.1)
        with pytest.raises(ValueError):
            FullSensingMultiplicativeWeights(initial_probability=0.9, p_max=0.5)
