"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from random import Random

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.core.low_sensing import LowSensingBackoff
from repro.core.parameters import LowSensingParameters
from repro.experiments.plan import Factory, RunSpec
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator


@pytest.fixture
def rng() -> Random:
    """A deterministic random source for unit tests."""
    return Random(1234)


@pytest.fixture
def small_params() -> LowSensingParameters:
    """Valid LOW-SENSING parameters small enough for fast unit tests."""
    return LowSensingParameters(c=0.5, w_min=32.0)


def run_batch(
    protocol,
    n: int,
    seed: int = 7,
    jammer=None,
    max_slots: int = 300_000,
    collect_potential: bool = False,
):
    """Run ``protocol`` on a batch of ``n`` packets and return the result."""
    config = SimulationConfig(
        protocol=protocol,
        adversary=CompositeAdversary(BatchArrivals(n), jammer),
        seed=seed,
        max_slots=max_slots,
        collect_potential=collect_potential,
    )
    return Simulator(config).run()


def run_specs(protocol, adversary, seeds, **options) -> list[RunSpec]:
    """One :class:`RunSpec` per seed: replications of one configuration.

    ``adversary`` is a :func:`~repro.experiments.plan.factory`, which builds
    a fresh adversary for every run, or a built adversary that every spec
    shares.  A shared one suits only ``VectorSimulator.from_specs``, which
    reads adversary parameters and never mutates them.
    """
    if not isinstance(adversary, Factory):
        built = adversary

        def adversary():
            return built

    return [
        RunSpec(protocol=protocol, adversary=adversary, seed=seed, **options)
        for seed in seeds
    ]


def counts_before(result, slot: int) -> tuple[int, int, int]:
    """``(backlog, arrivals_so_far, departures_so_far)`` an adversary must see
    before ``slot``'s injections, rebuilt from the run's packet records."""
    arrived = sum(1 for p in result.packets if p.arrival_slot < slot)
    departed = sum(
        1
        for p in result.packets
        if p.departure_slot is not None and p.departure_slot < slot
    )
    return arrived - departed, arrived, departed


@pytest.fixture
def batch_runner():
    """Expose :func:`run_batch` as a fixture for convenience."""
    return run_batch


@pytest.fixture
def low_sensing_protocol() -> LowSensingBackoff:
    return LowSensingBackoff()
