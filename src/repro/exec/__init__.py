"""Pluggable execution backends for running batches of simulations.

The experiment layer describes *what* to run (a sequence of
:class:`~repro.experiments.plan.RunSpec` jobs, each of which can build a
:class:`~repro.sim.config.SimulationConfig`); this package decides *how* to
run it:

* :class:`~repro.exec.backends.SerialBackend` — in-process, one job at a
  time (the reference implementation every other backend must match
  bit-for-bit);
* :class:`~repro.exec.backends.ProcessPoolBackend` — a multiprocessing pool
  over jobs with deterministic result ordering, for multi-core sweeps;
* :class:`~repro.exec.cache.ResultCacheBackend` — a wrapper that memoises
  results on disk, keyed by a stable hash of the job specification;
* :class:`~repro.exec.vector_backend.VectorBackend` — batches qualifying
  spec groups through the numpy batch engine (:mod:`repro.sim.vector`)
  and falls back serially for the rest.
  Vectorized results are statistically equivalent to serial results, not
  bit-identical (different random-stream layout).

Replicates of an experiment sweep are independent executions (separate
seeds, separate adversaries), so they are embarrassingly parallel; backends
exploit exactly that and nothing else, which is why every backend is
required to return results in job order and to produce results identical to
the serial backend.
"""

from repro.exec.backends import (
    SCALAR_LAYOUT,
    DynamicsBackend,
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    execute_job,
)
from repro.exec.cache import ResultCacheBackend
from repro.exec.vector_backend import VectorBackend

BACKEND_NAMES = ("serial", "processes", "vector")


def make_backend(
    name: str = "serial",
    *,
    workers: int | None = None,
    cache_dir: str | None = None,
    dynamics_window: int = 0,
) -> ExecutionBackend:
    """Build a backend from CLI-style options.

    ``name`` selects the execution strategy; ``cache_dir``, when given,
    wraps the chosen backend in a :class:`ResultCacheBackend`; a positive
    ``dynamics_window`` wraps the result in a :class:`DynamicsBackend`
    so every job records a windowed dynamics trajectory (0 is off).
    """
    if name == "serial":
        backend: ExecutionBackend = SerialBackend()
    elif name == "processes":
        backend = ProcessPoolBackend(workers=workers)
    elif name == "vector":
        backend = VectorBackend()
    else:
        raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
    if cache_dir is not None:
        backend = ResultCacheBackend(cache_dir, inner=backend)
    if dynamics_window:
        backend = DynamicsBackend(backend, dynamics_window)
    return backend


__all__ = [
    "BACKEND_NAMES",
    "SCALAR_LAYOUT",
    "DynamicsBackend",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "ResultCacheBackend",
    "SerialBackend",
    "VectorBackend",
    "execute_job",
    "make_backend",
]
