"""Convenience runner: one execution from a protocol and an adversary."""

from __future__ import annotations

from repro.adversary.arrivals import ArrivalProcess
from repro.adversary.base import Adversary
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import Jammer
from repro.protocols.base import BackoffProtocol
from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult


def run_simulation(
    protocol: BackoffProtocol,
    adversary: Adversary | None = None,
    *,
    arrivals: ArrivalProcess | None = None,
    jammer: Jammer | None = None,
    seed: int = 0,
    max_slots: int = 100_000,
    collect_trace: bool = False,
    collect_potential: bool = False,
) -> SimulationResult:
    """Run one execution.

    Either pass a fully assembled ``adversary`` or pass ``arrivals`` and/or
    ``jammer`` and have them composed automatically.  All remaining keyword
    arguments mirror :class:`~repro.sim.config.SimulationConfig`.
    """
    if adversary is not None and (arrivals is not None or jammer is not None):
        raise ValueError("pass either an adversary or arrivals/jammer, not both")
    if adversary is None:
        adversary = CompositeAdversary(arrival_process=arrivals, jammer=jammer)
    config = SimulationConfig(
        protocol=protocol,
        adversary=adversary,
        seed=seed,
        max_slots=max_slots,
        collect_trace=collect_trace,
        collect_potential=collect_potential,
    )
    return Simulator(config).run()

