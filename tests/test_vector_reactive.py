"""Tests for the feedback jammer kernels and vectorized outputs.

The reactive/adaptive jammers close a feedback loop with the protocol
state (they read each slot's senders or contention), so their vector
kernels run inside the engine's slot loop.  Three layers of checking,
mirroring ``test_vector_sensing``:

* **state-machine identity** — driving the *scalar jammer objects*
  (``ReactiveSuccessJammer``, ``ReactiveTargetedJammer``) with the vector
  engine's own coins, in the access-driven coin order
  (``access_reference``), must reproduce the vector results bit-for-bit.
  This proves the kernels implement exactly the scalar jam logic, so any
  residual vector-vs-scalar difference is the random-stream layout — the
  vector engine's documented contract;
* **output parity** — with ``collect_potential`` on, the materialised
  :class:`PotentialSample` sequence, and the per-slot counts the packet
  records imply, must equal a scalar-semantics reconstruction on the same
  coins, slot for slot.  Execution traces are not a vector output: a
  traced spec runs on the scalar engine;
* **statistical equivalence** — every new kernel runs through the
  Welch + design-effect-corrected KS harness against the serial engine,
  plus mega-stack bit-identity and budget invariants.
"""

from __future__ import annotations

import pytest

from access_reference import assert_counts_match, reference_run
from repro.adversary.arrivals import AdversarialQueueingArrivals, BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BudgetedRandomJamming,
    NoJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.analysis.equivalence import verify_vector_equivalence
from repro.core.low_sensing import LowSensingBackoff
from repro.exec import VectorBackend
from repro.experiments.plan import factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.sim.vector import VectorSimulator
from repro.sim.vector.support import TRACE_REASON
from tests.conftest import run_specs


def packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


# ---------------------------------------------------------------------------
# State-machine identity: scalar adversaries driven by the vector coins
# ---------------------------------------------------------------------------


class TestReactiveKernelsMatchScalarAdversaries:
    """Same coins + scalar adversary logic == vector results, bit-for-bit."""

    def test_reactive_success(self):
        for seed in (3, 11, 42):
            vector = VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(12), ReactiveSuccessJammer(budget=6)
                    ),
                    [seed],
                    max_slots=4000,
                )
            ).run()[0]
            adversary = CompositeAdversary(
                BatchArrivals(12), ReactiveSuccessJammer(budget=6)
            )
            reference = reference_run(BinaryExponentialBackoff(), adversary, seed, 4000)
            assert packet_tuples(vector) == reference.packets
            assert vector.collector.num_jammed == 6

    def test_reactive_targeted(self):
        for seed, target in ((3, 0), (11, 2), (42, 5)):
            vector = VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(8),
                        ReactiveTargetedJammer(budget=4, target_index=target),
                    ),
                    [seed],
                    max_slots=4000,
                )
            ).run()[0]
            adversary = CompositeAdversary(
                BatchArrivals(8),
                ReactiveTargetedJammer(budget=4, target_index=target),
            )
            reference = reference_run(BinaryExponentialBackoff(), adversary, seed, 4000)
            assert packet_tuples(vector) == reference.packets


# ---------------------------------------------------------------------------
# Vectorized outputs: Φ and the per-slot counts
# ---------------------------------------------------------------------------


class TestTraceAndPotentialParity:
    def test_slot_counts_and_potential_match_scalar_semantics_bit_for_bit(self):
        for seed in (3, 11):
            vector = VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(10), ReactiveSuccessJammer(budget=4)
                    ),
                    [seed],
                    max_slots=4000,
                    collect_potential=True,
                )
            ).run()[0]
            adversary = CompositeAdversary(
                BatchArrivals(10), ReactiveSuccessJammer(budget=4)
            )
            reference = reference_run(
                BinaryExponentialBackoff(), adversary, seed, 4000, collect=True
            )
            assert vector.trace is None
            assert vector.potential is not None
            assert_counts_match(vector, reference.records)
            assert list(vector.potential.samples) == reference.samples

    def test_trace_only_run_omits_potential(self):
        # A traced spec runs on the scalar engine, whose trace is the one
        # trace implementation.
        specs = run_specs(
            BinaryExponentialBackoff(),
            CompositeAdversary(BatchArrivals(5), NoJamming()),
            [7],
            max_slots=2000,
            collect_trace=True,
        )
        with pytest.raises(ValueError, match=TRACE_REASON):
            VectorSimulator.from_specs(specs)
        backend = VectorBackend()
        (result,) = backend.run(specs)
        assert backend.fallback_jobs == 1
        assert result.trace is not None
        assert result.potential is None
        assert all(record.potential is None for record in result.trace.records)
        assert result.trace.num_arrivals == 5
        assert result.trace.num_successes == 5

    def test_packet_records_are_consistent_with_the_collector(self):
        result = VectorSimulator.from_specs(
            run_specs(
                BinaryExponentialBackoff(),
                CompositeAdversary(BatchArrivals(15), ReactiveSuccessJammer(budget=5)),
                [13],
                max_slots=8000,
            )
        ).run()[0]
        counts = result.slot_counts()
        collector = result.collector
        assert counts.arrivals.size == result.num_slots
        assert counts.successes[-1] == collector.num_successes
        assert counts.arrivals[-1] == collector.num_arrivals == 15
        assert counts.active_slots[-1] == collector.num_active_slots
        assert collector.num_jammed == 5
        # Winners count their winning send, so the packets' sends are the
        # collector's total.
        assert sum(packet.sends for packet in result.packets) == collector.total_sends

    def test_windowless_protocol_yields_zero_potential(self):
        from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights

        result = VectorSimulator.from_specs(
            run_specs(
                FullSensingMultiplicativeWeights(),
                CompositeAdversary(BatchArrivals(6), NoJamming()),
                [5],
                max_slots=2000,
                collect_potential=True,
            )
        ).run()[0]
        assert result.potential is not None
        assert len(result.potential.samples) == result.num_slots
        assert all(sample.potential == 0.0 for sample in result.potential.samples)

    def test_collected_outputs_do_not_perturb_the_run(self):
        def run(**flags):
            return VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(12), ReactiveSuccessJammer(budget=4)
                    ),
                    [3, 7],
                    max_slots=4000,
                    **flags,
                )
            ).run()

        bare = run()
        collected = run(collect_potential=True, dynamics_window=64)
        for a, b in zip(bare, collected):
            assert packet_tuples(a) == packet_tuples(b)
            assert a.backlog_series() == b.backlog_series()


# ---------------------------------------------------------------------------
# Statistical equivalence per kernel
# ---------------------------------------------------------------------------


def _equivalence_cases():
    return [
        pytest.param(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 30),
                factory(ReactiveSuccessJammer, budget=15),
            ),
            id="reactive-success",
        ),
        pytest.param(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 20),
                factory(ReactiveTargetedJammer, budget=10, target_index=0),
            ),
            id="reactive-targeted",
        ),
        pytest.param(
            LowSensingBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 25),
                factory(AdaptiveContentionJammer, budget=12, target_regime="good"),
            ),
            id="adaptive-contention",
        ),
        pytest.param(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 25),
                factory(BudgetedRandomJamming, budget=20, horizon=400),
            ),
            id="budgeted-random",
        ),
        pytest.param(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(
                    AdversarialQueueingArrivals,
                    rate=0.2,
                    granularity=50,
                    horizon=500,
                    placement="uniform",
                ),
                factory(NoJamming),
            ),
            id="queueing-uniform",
        ),
        pytest.param(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(
                    AdversarialQueueingArrivals,
                    rate=0.2,
                    granularity=50,
                    horizon=500,
                    placement="random",
                ),
                factory(NoJamming),
            ),
            id="queueing-random",
        ),
    ]


class TestReactiveKernelEquivalence:
    @pytest.mark.parametrize("protocol,adversary", _equivalence_cases())
    def test_kernel_statistically_matches_scalar(self, protocol, adversary):
        specs = run_specs(protocol, adversary, range(1, 9), max_slots=20_000)
        report = verify_vector_equivalence(specs)
        assert report.passed, report.render()

    def test_equivalence_with_collected_outputs(self):
        specs = run_specs(
            BinaryExponentialBackoff(),
            factory(
                CompositeAdversary,
                factory(BatchArrivals, 25),
                factory(ReactiveSuccessJammer, budget=10),
            ),
            range(1, 9),
            max_slots=20_000,
            collect_potential=True,
            dynamics_window=500,
        )
        report = verify_vector_equivalence(specs)
        assert report.passed, report.render()


# ---------------------------------------------------------------------------
# Mega-stack bit-identity and invariants
# ---------------------------------------------------------------------------


class TestMegaStackBitIdentity:
    def test_reactive_groups_stack_bit_identically(self):
        groups = [
            run_specs(
                BinaryExponentialBackoff(),
                factory(
                    CompositeAdversary,
                    factory(BatchArrivals, 15),
                    factory(ReactiveSuccessJammer, budget=budget),
                ),
                (1, 2, 3),
                max_slots=8000,
            )
            for budget in (5, 9)
        ]
        mega = VectorSimulator.from_specs(
            [spec for specs in groups for spec in specs]
        ).run()
        flat = iter(mega)
        for specs in groups:
            for expected in VectorSimulator.from_specs(specs).run():
                got = next(flat)
                assert packet_tuples(got) == packet_tuples(expected)
                assert (
                    got.backlog_series() == expected.backlog_series()
                )

    def test_budget_respected_per_replication(self):
        results = VectorSimulator.from_specs(
            run_specs(
                BinaryExponentialBackoff(),
                CompositeAdversary(BatchArrivals(20), ReactiveSuccessJammer(budget=7)),
                [1, 2, 3, 4],
                max_slots=8000,
            )
        ).run()
        for result in results:
            assert result.collector.num_jammed <= 7

    def test_repeat_runs_bit_identical(self):
        def run_batch():
            return VectorSimulator.from_specs(
                run_specs(
                    LowSensingBackoff(),
                    CompositeAdversary(
                        BatchArrivals(20),
                        AdaptiveContentionJammer(budget=8, target_regime="good"),
                    ),
                    [11, 23, 47],
                    max_slots=20_000,
                )
            ).run()

        for first, second in zip(run_batch(), run_batch()):
            assert first.backlog_series() == second.backlog_series()
            assert packet_tuples(first) == packet_tuples(second)
