"""Vectorized batch simulation.

One :class:`VectorSimulator` runs every replication of one or more
``(protocol, adversary)`` configurations in lockstep over ``(replications
× packets)`` numpy arrays, turning a batch of scalar executions into a
single pass of array operations per slot.  :mod:`repro.sim.vector.support`
decides which configurations qualify and which share a batch; everything
else runs on the scalar
:class:`~repro.sim.engine.Simulator` (the
:class:`~repro.exec.vector_backend.VectorBackend` handles that fallback
transparently).

Vector results agree with scalar results statistically, not bit-for-bit:
the engines draw from differently shaped random streams (per-replication
Philox here, per-packet ``random.Random`` there).  Every vector result is
a function of its (spec, seed) alone, whatever batch it runs in, and is
filed under the one vector result layout :data:`RESULT_LAYOUT`.
``repro.analysis.equivalence`` provides the statistical-agreement harness.
"""

from repro.sim.vector.engine import VectorSimulator
from repro.sim.vector.rng import RESULT_LAYOUT
from repro.sim.vector.support import (
    adversary_support,
    protocol_support,
    vector_support,
)

__all__ = [
    "RESULT_LAYOUT",
    "VectorSimulator",
    "adversary_support",
    "protocol_support",
    "vector_support",
]
