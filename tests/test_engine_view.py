"""What the scalar engine hands its adversary, and that tracking C(t) is inert.

The engine builds one count-only :class:`~repro.adversary.base.SystemView`
per slot for every adversary.  These tests rebuild the counts it must carry
from the run's packet records, and check that computing the contention every
slot — as a traced run does — changes no result.
"""

import pytest

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.base import Adversary
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BurstJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.core.low_sensing import LowSensingBackoff
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from tests.conftest import counts_before


def _packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


class RecordingAdversary(Adversary):
    """Wraps an adversary and records the view's counts at every hook call."""

    def __init__(self, inner):
        self.inner = inner
        self.reactive = inner.reactive
        self.needs_contention = inner.needs_contention
        self.seen = []

    def _record(self, hook, view):
        self.seen.append(
            (
                hook,
                view.slot,
                view.backlog,
                view.arrivals_so_far,
                view.departures_so_far,
            )
        )

    def arrivals(self, view, rng):
        self._record("arrivals", view)
        return self.inner.arrivals(view, rng)

    def jam(self, view, rng):
        self._record("jam", view)
        return self.inner.jam(view, rng)

    def reactive_jam(self, view, senders, rng):
        self._record("reactive_jam", view)
        return self.inner.reactive_jam(view, senders, rng)

    def arrivals_exhausted(self, slot):
        return self.inner.arrivals_exhausted(slot)


class TestTrackingContentionChangesNothing:
    """A traced run computes C(t) every slot; an untraced one never does."""

    @pytest.mark.parametrize(
        "adversary_factory",
        [
            lambda: CompositeAdversary(BatchArrivals(40)),
            lambda: CompositeAdversary(
                PeriodicBurstArrivals(burst_size=5, period=20, num_bursts=4),
                BurstJamming(start=10, length=15),
            ),
            lambda: CompositeAdversary(
                AdversarialQueueingArrivals(
                    rate=0.2, granularity=50, placement="random", horizon=500
                )
            ),
        ],
    )
    @pytest.mark.parametrize("protocol_cls", [LowSensingBackoff, BinaryExponentialBackoff])
    def test_traced_run_matches_untraced(self, adversary_factory, protocol_cls):
        def run(collect_trace):
            config = SimulationConfig(
                protocol=protocol_cls(),
                adversary=adversary_factory(),
                seed=13,
                max_slots=100_000,
                collect_trace=collect_trace,
            )
            return Simulator(config).run()

        traced, plain = run(True), run(False)
        assert traced.summary() == plain.summary()
        assert _packet_tuples(traced) == _packet_tuples(plain)
        assert all(record.contention is not None for record in traced.trace)

    def test_slot_by_slot_outcomes_match(self):
        def outcomes(collect_trace):
            config = SimulationConfig(
                protocol=LowSensingBackoff(),
                adversary=CompositeAdversary(BatchArrivals(12)),
                seed=5,
                max_slots=400,
                collect_trace=collect_trace,
            )
            sim = Simulator(config)
            return [sim.step() for _ in range(400)]

        assert outcomes(False) == outcomes(True)


class TestViewCarriesEngineCounts:
    """At every hook call the view holds the counts the packet records imply."""

    @pytest.mark.parametrize(
        "protocol_cls, adversary_factory, options",
        [
            pytest.param(
                LowSensingBackoff,
                lambda: CompositeAdversary(BatchArrivals(30)),
                {},
                id="batch",
            ),
            pytest.param(
                BinaryExponentialBackoff,
                lambda: CompositeAdversary(
                    PeriodicBurstArrivals(burst_size=5, period=20, num_bursts=4),
                    BurstJamming(start=10, length=15),
                ),
                {},
                id="bursts-burst-jamming",
            ),
            pytest.param(
                LowSensingBackoff,
                lambda: CompositeAdversary(
                    AdversarialQueueingArrivals(
                        rate=0.2, granularity=50, placement="random", horizon=400
                    )
                ),
                {},
                id="queueing",
            ),
            pytest.param(
                LowSensingBackoff,
                lambda: CompositeAdversary(
                    PoissonArrivals(0.05, horizon=400), BernoulliJamming(0.2)
                ),
                {},
                id="poisson-bernoulli-only-active",
            ),
            pytest.param(
                LowSensingBackoff,
                lambda: CompositeAdversary(
                    BatchArrivals(30), AdaptiveContentionJammer(budget=20)
                ),
                {},
                id="adaptive-contention",
            ),
            pytest.param(
                BinaryExponentialBackoff,
                lambda: CompositeAdversary(
                    PoissonArrivals(0.05, horizon=400), ReactiveSuccessJammer(budget=15)
                ),
                {},
                id="reactive-success",
            ),
            pytest.param(
                BinaryExponentialBackoff,
                lambda: CompositeAdversary(
                    PeriodicBurstArrivals(burst_size=4, period=30, num_bursts=5),
                    ReactiveTargetedJammer(budget=15, target_index=6),
                ),
                {},
                id="reactive-targeted",
            ),
            pytest.param(
                LowSensingBackoff,
                lambda: CompositeAdversary(
                    BatchArrivals(20), BernoulliJamming(0.1, only_active=False)
                ),
                {"collect_potential": True},
                id="potential",
            ),
        ],
    )
    def test_counts_match_packet_records(self, protocol_cls, adversary_factory, options):
        adversary = RecordingAdversary(adversary_factory())
        config = SimulationConfig(
            protocol=protocol_cls(),
            adversary=adversary,
            seed=7,
            max_slots=20_000,
            **options,
        )
        result = Simulator(config).run()
        hooks = {hook for hook, *_ in adversary.seen}
        assert {"arrivals", "jam"} <= hooks
        if adversary.reactive:
            assert "reactive_jam" in hooks
        # Both pre-slot hooks see every slot once; the reactive hook sees
        # only the slots the pre-slot jam left open.
        assert sum(hook == "jam" for hook, *_ in adversary.seen) == result.num_slots
        for hook, slot, backlog, arrivals, departures in adversary.seen:
            assert (backlog, arrivals, departures) == counts_before(result, slot), (
                hook,
                slot,
            )


class TestReactiveTargetedJammerTiming:
    def test_target_never_jammed_in_its_arrival_slot(self):
        # Every packet sends with probability 1/2, so over a few seeds the
        # target sends both in its own arrival slot and in later ones.
        target = 4
        sends_on_arrival = sends_later = 0
        for seed in range(1, 5):
            config = SimulationConfig(
                protocol=FixedProbabilityProtocol(probability=0.5),
                adversary=CompositeAdversary(
                    PeriodicBurstArrivals(burst_size=1, period=3, num_bursts=8),
                    ReactiveTargetedJammer(budget=None, target_index=target),
                ),
                seed=seed,
                max_slots=200,
                collect_trace=True,
            )
            result = Simulator(config).run()
            arrival = result.packets[target].arrival_slot
            for record in result.trace:
                if target not in record.senders:
                    continue
                # Unseen in its arrival slot, so unjammed there; jammed on
                # every later send (unbounded budget, no other jammer).
                assert record.jammed == (record.slot > arrival), (seed, record.slot)
                if record.slot == arrival:
                    sends_on_arrival += 1
                else:
                    sends_later += 1
        assert sends_on_arrival and sends_later
