"""Discrete-time simulation engines.

The scalar engine (:class:`~repro.sim.engine.Simulator`) plays the paper's
model slot by slot: the adversary injects packets and decides jamming,
every active packet chooses an action from its protocol state, the channel
resolves the slot, feedback is delivered, and metrics/traces are updated.
Executions are fully deterministic given a
:class:`~repro.sim.config.SimulationConfig` (protocol, adversary, seed).

The vector engine (:mod:`repro.sim.vector`) replays the same slot
semantics for a whole batch of replications at once over ``(replications ×
packets)`` numpy arrays; it covers the vectorizable core of the
configuration space and is imported lazily (so the scalar path has no
numpy requirement at import time).
"""

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.results import SimulationResult
from repro.sim.rng import RandomStreams
from repro.sim.runner import run_simulation

__all__ = [
    "Packet",
    "RandomStreams",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "run_simulation",
]
