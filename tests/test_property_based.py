"""Property-based tests (hypothesis) for core invariants.

These tests check the structural invariants the paper's analysis relies on:
windows never drop below w_min, the unconditional sending probability is
exactly 1/w, contention is the sum of sending probabilities, throughput
metrics stay in range, executions conserve packets, and generated
adversarial-queuing arrival streams are admissible.
"""

from random import Random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.adversary.arrivals import AdversarialQueueingArrivals, TraceArrivals
from repro.adversary.base import SystemView
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import BernoulliJamming
from repro.channel.channel import resolve_slot
from repro.channel.feedback import Feedback, FeedbackReport, SlotOutcome
from repro.core.low_sensing import LowSensingPacketState
from repro.core.parameters import LowSensingParameters
from repro.core.potential import PotentialTracker
from repro.metrics.throughput import ThroughputAccounting
from repro.queueing.model import QueueingConstraint
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator

SLOW = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- Parameters and window dynamics ------------------------------------------


@given(
    c=st.floats(min_value=0.1, max_value=1.0),
    w_min=st.floats(min_value=40.0, max_value=500.0),
    window_factor=st.floats(min_value=1.0, max_value=1000.0),
)
def test_send_probability_is_inverse_window(c, w_min, window_factor):
    params = LowSensingParameters(c=c, w_min=w_min, strict=False)
    window = w_min * window_factor
    assert abs(params.send_probability(window) * window - 1.0) < 1e-6 or (
        params.access_probability(window) == 1.0
    )


@given(
    feedback_sequence=st.lists(
        st.sampled_from([Feedback.EMPTY, Feedback.NOISE, Feedback.SUCCESS]),
        min_size=1,
        max_size=300,
    )
)
def test_window_never_drops_below_w_min(feedback_sequence):
    params = LowSensingParameters()
    state = LowSensingPacketState(params)
    rng = Random(0)
    for feedback in feedback_sequence:
        state.observe(FeedbackReport(feedback=feedback, sent=False), rng)
        assert state.window >= params.w_min
        assert 0.0 < state.access_probability() <= 1.0


@given(
    noisy_count=st.integers(min_value=0, max_value=200),
    empty_count=st.integers(min_value=0, max_value=200),
)
def test_window_monotone_in_noise_minus_silence(noisy_count, empty_count):
    """More noise observations never yield a smaller window (order fixed)."""
    params = LowSensingParameters()
    rng = Random(0)
    state = LowSensingPacketState(params)
    for _ in range(noisy_count):
        state.observe(FeedbackReport(feedback=Feedback.NOISE, sent=False), rng)
    for _ in range(empty_count):
        state.observe(FeedbackReport(feedback=Feedback.EMPTY, sent=False), rng)
    if empty_count == 0 and noisy_count > 0:
        assert state.window > params.w_min
    if noisy_count == 0:
        assert state.window == params.w_min


# -- Channel resolution --------------------------------------------------------


@given(
    num_senders=st.integers(min_value=0, max_value=20),
    jammed=st.booleans(),
)
def test_channel_resolution_cases(num_senders, jammed):
    outcome = resolve_slot(num_senders, jammed)
    if jammed:
        assert outcome is SlotOutcome.JAMMED
    elif num_senders == 0:
        assert outcome is SlotOutcome.EMPTY
    elif num_senders == 1:
        assert outcome is SlotOutcome.SUCCESS
    else:
        assert outcome is SlotOutcome.COLLISION
    assert outcome.feedback in (Feedback.EMPTY, Feedback.SUCCESS, Feedback.NOISE)


# -- Throughput metrics ---------------------------------------------------------


@given(
    arrivals=st.integers(min_value=0, max_value=10_000),
    delivered_fraction=st.floats(min_value=0.0, max_value=1.0),
    jammed=st.integers(min_value=0, max_value=1_000),
    extra_slots=st.integers(min_value=0, max_value=10_000),
)
def test_throughput_bounds(arrivals, delivered_fraction, jammed, extra_slots):
    successes = int(arrivals * delivered_fraction)
    active_slots = successes + jammed + extra_slots
    accounting = ThroughputAccounting(
        arrivals=arrivals,
        successes=successes,
        jammed_active=jammed,
        active_slots=active_slots,
    )
    assert 0.0 <= accounting.throughput <= 1.0 or active_slots == 0
    assert accounting.implicit_throughput >= accounting.throughput


# -- Potential function ----------------------------------------------------------


@given(
    windows=st.lists(
        st.floats(min_value=32.0, max_value=1e6), min_size=0, max_size=100
    )
)
def test_potential_nonnegative_and_zero_iff_empty(windows):
    tracker = PotentialTracker()
    sample = tracker.record(0, windows)
    if windows:
        assert sample.potential > 0.0
        assert sample.contention > 0.0
    else:
        assert sample.potential == 0.0


# -- Adversarial queueing admissibility ---------------------------------------------


@SLOW
@given(
    rate=st.floats(min_value=0.05, max_value=0.6),
    granularity=st.integers(min_value=10, max_value=100),
    placement=st.sampled_from(["front", "uniform", "random"]),
    windows=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_queueing_arrivals_admissible(rate, granularity, placement, windows, seed):
    process = AdversarialQueueingArrivals(
        rate=rate, granularity=granularity, placement=placement
    )
    rng = Random(seed)
    horizon = granularity * windows
    counts = [
        process.arrivals(SystemView(slot=slot, backlog=0, arrivals_so_far=0), rng)
        for slot in range(horizon)
    ]
    constraint = QueueingConstraint(rate=rate, granularity=granularity, sliding=False)
    assert constraint.is_admissible(counts, [False] * horizon)


# -- End-to-end conservation -----------------------------------------------------


@SLOW
@given(
    counts=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=30),
    jam_probability=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_execution_conserves_packets(counts, jam_probability, seed):
    adversary = CompositeAdversary(
        TraceArrivals(counts),
        BernoulliJamming(probability=jam_probability, budget=20),
    )
    from repro.core.low_sensing import LowSensingBackoff

    config = SimulationConfig(
        protocol=LowSensingBackoff(),
        adversary=adversary,
        seed=seed,
        max_slots=5_000,
    )
    result = Simulator(config).run()
    assert result.num_arrivals == sum(counts)
    assert result.num_delivered + result.backlog == result.num_arrivals
    assert result.num_delivered == len([p for p in result.packets if p.departed])
    # Active slots never exceed total slots; jammed-active never exceeds jams.
    assert result.num_active_slots <= result.num_slots
    assert result.num_jammed_active <= result.num_jammed
    if result.drained:
        assert result.backlog == 0
        assert result.throughput == result.implicit_throughput
