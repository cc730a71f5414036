"""Execution backends: serial and process-pool job runners.

A *job* is any object exposing ``build_config() -> SimulationConfig``
(:class:`RunJob`).  Every caller builds
:class:`~repro.experiments.plan.RunSpec` jobs: fully declarative and
picklable, as process pools and caching require.

Every backend honours the same contract:

* results are returned in job order, regardless of completion order;
* each job builds its configuration (and therefore its adversary) freshly,
  so no mutable state leaks between replicates;
* a job's result is a deterministic function of the job and the backend's
  *result layout* (:meth:`ExecutionBackend.result_layout`), never of the
  batch it runs in: :data:`SCALAR_LAYOUT` results are identical to what
  :class:`SerialBackend` produces — parallelism must never change the
  science — and the vector backend's layout is statistically equivalent.

Telemetry (:mod:`repro.telemetry`) rides along without touching that
contract: backends emit build/simulate phase spans and post-run counters
when a session is active, and cost one no-op ``current()`` lookup when it
is not.  Pool workers run with telemetry disabled (a session is
process-local); the parent reconstructs per-job spans from the monotonic
timestamps workers return, which on Linux are comparable across processes
(``CLOCK_MONOTONIC`` is system-wide), giving queue-wait vs run time and
worker-pid attribution for free.  Each job carries the parent session's
``enabled`` flag, and workers take their resource snapshot only when it
is set.
"""

from __future__ import annotations

import abc
import os
import pickle
import time
from multiprocessing import Pool
from typing import Any, Protocol, Sequence

from repro.sim.config import SimulationConfig
from repro.sim.engine import Simulator
from repro.sim.results import SimulationResult
from repro.telemetry import current as current_telemetry

#: The result layout of the scalar engine, shared by the serial and
#: process-pool backends.  The number is the result-format version: bump it
#: when a result's pickled bytes change, so the result cache and campaign
#: stores recompute rows filed under an older format rather than serve them.
SCALAR_LAYOUT = "scalar:3"


class RunJob(Protocol):
    """Anything that can build a simulation configuration on demand."""

    def build_config(self) -> SimulationConfig: ...


def job_identity(job: RunJob) -> str:
    """A human-nameable identity for one job in a batch.

    Used by worker error wrapping and telemetry attribution, so a failing
    or slow spec inside a 200-job sweep can be pointed at directly.
    Prefers the spec's stable content hash (when it has one) plus the
    protocol class and seed; degrades to the job type for opaque jobs.
    """
    parts: list[str] = []
    protocol = getattr(job, "protocol", None)
    if protocol is not None:
        parts.append(type(protocol).__name__)
    key_method = getattr(job, "cache_key", None)
    if callable(key_method):
        try:
            key = key_method()
        except Exception:
            key = None
        if key:
            parts.append(f"spec={key[:12]}")
    seed = getattr(job, "seed", None)
    if seed is not None:
        parts.append(f"seed={seed}")
    if not parts:
        parts.append(type(job).__name__)
    return " ".join(parts)


class WorkerJobError(RuntimeError):
    """A job failed inside a pool worker, re-raised with its identity.

    ``multiprocessing`` pickles worker exceptions back to the parent but
    drops any notion of *which* job raised — this wrapper carries the job
    index and spec identity across the process boundary.  The original
    traceback stays in the worker; its type and message are embedded here
    (and in ``cause_type``/``cause_message``) because chained exceptions
    (``__cause__``) do not survive pickling.
    """

    def __init__(
        self, job_index: int, job_identity: str, cause_type: str, cause_message: str
    ) -> None:
        super().__init__(
            f"job {job_index} ({job_identity}) failed in pool worker: "
            f"{cause_type}: {cause_message}"
        )
        self.job_index = job_index
        self.job_identity = job_identity
        self.cause_type = cause_type
        self.cause_message = cause_message

    def __reduce__(self):
        # Default Exception reduction re-calls __init__ with self.args (the
        # formatted message), which has the wrong arity — rebuild from the
        # structured fields instead so the error pickles across the pool.
        return (
            WorkerJobError,
            (self.job_index, self.job_identity, self.cause_type, self.cause_message),
        )


def _scalar_run_counters(tele: Any, result: SimulationResult, backend: str) -> None:
    """Hot-loop totals for one scalar execution, read *after* the run.

    Everything here is derived from the finished result — the simulator's
    per-slot loop is untouched, which is what keeps the disabled (and even
    the enabled) overhead off the hot path.
    """
    tele.counter("slots_simulated", result.num_slots, backend=backend)
    tele.counter("packets_processed", len(result.packets), backend=backend)
    if result.potential is not None:
        tele.counter("potential_materialisations", 1, backend=backend)


def execute_job(job: RunJob) -> SimulationResult:
    """Run one job to completion.

    Module-level (rather than a backend method) so process pools can pickle
    it by reference and ship only the job to the worker.  When a telemetry
    session is active in this process, the build and simulate phases are
    timed as spans; the disabled path adds one no-op lookup.
    """
    tele = current_telemetry()
    if not tele.enabled:
        return Simulator(job.build_config()).run()
    with tele.span("build", kind="phase", backend="serial"):
        config = job.build_config()
    with tele.span("simulate", kind="phase", backend="serial"):
        result = Simulator(config).run()
    _scalar_run_counters(tele, result, "serial")
    return result


def _execute_pool_job(
    indexed_job: tuple[int, RunJob, bool],
) -> tuple[SimulationResult, int, float, float, dict[str, Any]]:
    """Worker-side job execution: timed, attributed, and error-wrapped.

    ``indexed_job`` is ``(index, job, telemetry)``, where ``telemetry`` is
    the parent session's ``enabled`` flag.  Returns ``(result, worker_pid,
    started, ended, resources)`` with monotonic timestamps, so the parent
    can reconstruct queue-wait vs run time.  With telemetry on,
    ``resources`` is a job-boundary snapshot of the worker's RSS/CPU/fds
    (telemetry sessions are process-local, so workers hand the sample back
    for the parent to emit); with it off, it is empty, and the worker
    neither reads ``/proc`` nor imports :mod:`repro.observe` for it.
    Failures re-raise as :class:`WorkerJobError` carrying the job index
    and spec identity (a bare worker exception is unattributable in a
    large sweep).
    """
    index, job, telemetry = indexed_job
    started = time.monotonic()
    try:
        config = job.build_config()
        result = Simulator(config).run()
    except Exception as exc:
        raise WorkerJobError(
            index, job_identity(job), type(exc).__name__, str(exc)
        ) from exc
    ended = time.monotonic()
    resources: dict[str, Any] = {}
    if telemetry:
        from repro.observe.resources import sample_process

        resources = sample_process()
    return result, os.getpid(), started, ended, resources


class ExecutionBackend(abc.ABC):
    """Runs a batch of independent simulation jobs."""

    #: Short machine-readable backend name (used by the CLI and reports).
    name: str = "abstract"

    @abc.abstractmethod
    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        """Execute every job and return their results in job order."""

    def result_layout(self, job: RunJob) -> str:
        """Identity namespace of the result this backend produces for ``job``.

        :data:`SCALAR_LAYOUT` is the reference layout: serial and process-pool
        executions are bit-identical, so their results are interchangeable
        under one cache key.  Every backend's result for a job is a
        deterministic function of the job and its layout, so the result
        cache files it under ``(spec hash, seed, layout)``.
        """
        return SCALAR_LAYOUT

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of the backend configuration."""
        return {"backend": self.name}

    def close(self) -> None:
        """Release any resources the backend holds (no-op by default)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class DynamicsBackend(ExecutionBackend):
    """Decorator backend that switches on windowed dynamics sampling.

    Rewrites every job it is handed to carry ``dynamics_window`` before
    delegating to the wrapped backend; a job without that field passes
    through unchanged.  This is how ``--dynamics`` reaches sweeps whose
    plans are built elsewhere (the paper experiments build their own plans
    internally); because ``dynamics_window`` is excluded from spec cache
    keys and stripped from stored artifacts, the rewrite is invisible to
    caching and result identity.
    """

    def __init__(self, inner: ExecutionBackend, window: int) -> None:
        if window <= 0:
            raise ValueError("dynamics window must be positive")
        self._inner = inner
        self.window = window
        self.name = inner.name

    def _with_dynamics(self, job: RunJob) -> RunJob:
        import dataclasses

        if getattr(job, "dynamics_window", None) == self.window:
            return job
        if dataclasses.is_dataclass(job) and any(
            field.name == "dynamics_window" for field in dataclasses.fields(job)
        ):
            return dataclasses.replace(job, dynamics_window=self.window)
        return job

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        return self._inner.run([self._with_dynamics(job) for job in jobs])

    def result_layout(self, job: RunJob) -> str:
        return self._inner.result_layout(self._with_dynamics(job))

    def describe(self) -> dict[str, Any]:
        description = self._inner.describe()
        description["dynamics_window"] = self.window
        return description

    def close(self) -> None:
        self._inner.close()


class SerialBackend(ExecutionBackend):
    """One job at a time, in-process.  The reference backend."""

    name = "serial"

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        tele = current_telemetry()
        if not tele.enabled:
            return [execute_job(job) for job in jobs]
        results: list[SimulationResult] = []
        total = len(jobs)
        for index, job in enumerate(jobs):
            results.append(execute_job(job))
            tele.progress("serial jobs", index + 1, total, backend=self.name)
        return results


class ProcessPoolBackend(ExecutionBackend):
    """Runs jobs across a multiprocessing pool of ``workers`` processes
    (default ``os.cpu_count()``), started the platform's default way.

    Each task is one job: replicate runtimes vary widely (a drained batch
    run ends early, a jammed one does not), so single jobs balance the load
    best.  Jobs and results must be picklable.
    """

    name = "processes"

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers <= 0:
            raise ValueError("workers must be positive")
        self.workers = workers or os.cpu_count() or 1

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        jobs = list(jobs)
        if not jobs:
            return []
        # Always execute through the pool (even for one job or one worker),
        # so result metadata reporting this backend is never describing a
        # silent serial fallback.
        self._check_picklable(jobs)
        tele = current_telemetry()
        submitted = time.monotonic()
        with Pool(processes=min(self.workers, len(jobs))) as pool:
            # Pool.map preserves input order, which is what makes the
            # backend deterministic regardless of completion order.
            outcomes = pool.map(
                _execute_pool_job,
                [(index, job, tele.enabled) for index, job in enumerate(jobs)],
                chunksize=1,
            )
        results: list[SimulationResult] = []
        worker_resources: dict[int, dict[str, Any]] = {}
        for index, (result, worker_pid, started, ended, resources) in enumerate(
            outcomes
        ):
            results.append(result)
            if resources:
                # Last job-boundary snapshot per pid wins: latest is the
                # high-water mark for monotonic quantities (CPU time) and
                # a late reading for RSS/fds.
                worker_resources[worker_pid] = resources
            if tele.enabled:
                # Workers time themselves on CLOCK_MONOTONIC, which is
                # system-wide on Linux, so queue-wait (submit → worker
                # start), run time and the job's end on the session clock
                # are directly comparable.
                tele.span_record(
                    "simulate",
                    ended - started,
                    ended,
                    kind="phase",
                    backend=self.name,
                    job=index,
                    worker_pid=worker_pid,
                    queue_wait=round(max(0.0, started - submitted), 6),
                )
        if tele.enabled:
            for worker_pid in sorted(worker_resources):
                tele.event(
                    "resource_sample",
                    pid=worker_pid,
                    source="worker",
                    **worker_resources[worker_pid],
                )
            for result in results:
                _scalar_run_counters(tele, result, self.name)
            tele.progress("pool jobs", len(jobs), len(jobs), backend=self.name)
        return results

    @staticmethod
    def _check_picklable(jobs: Sequence[RunJob]) -> None:
        try:
            pickle.dumps(list(jobs))
        except Exception as exc:
            raise TypeError(
                "ProcessPoolBackend requires picklable jobs; closures and "
                "lambdas cannot cross process boundaries — express the sweep "
                "declaratively with repro.experiments.plan.RunSpec/factory, "
                "or use SerialBackend"
            ) from exc

    def describe(self) -> dict[str, Any]:
        return {"backend": self.name, "workers": self.workers}
