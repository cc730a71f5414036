"""The vector execution backend.

:class:`VectorBackend` accepts an arbitrary batch of jobs and places each
one with the one lockstep placement rule,
:func:`~repro.sim.vector.support.placement`: a job either falls back, with
a named reason, or joins the batch of its batch key.  Each batch — one
replication group, or several compatible groups stacked into a mega-batch
(one ragged launch per protocol and jammer kernel family and set of engine
options, parameters promoted to per-row arrays, each group keeping its own
arrival schedule) — runs through one
:meth:`~repro.sim.vector.VectorSimulator.from_specs` call, and every
remaining job runs on a :class:`~repro.exec.backends.SerialBackend`.
Results always come back in job order, so the backend is a drop-in
replacement anywhere a backend is accepted.

Contract differences from the other backends:

* fallback results are *identical* to what the serial backend produces on
  its own (it is literally the same code path);
* vectorized results are **statistically equivalent** to serial results,
  not bit-identical — the vector engine draws per-replication Philox
  streams instead of per-packet ``random.Random`` streams.  A vectorized
  result is a function of its (spec, seed) alone, whatever batch or
  mega-batch it runs in, so mega-batching changes wall-clock only (one
  ``run`` call per group is the per-group baseline), and the result cache
  files vectorized results per job under the one vector layout
  (:data:`~repro.sim.vector.RESULT_LAYOUT`).  See
  ``repro.analysis.equivalence`` for the checking harness.

Only :class:`~repro.experiments.plan.RunSpec` jobs are eligible; an opaque
job (one without ``vector_support``) always falls back.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.exec.backends import ExecutionBackend, RunJob, SerialBackend
from repro.sim.results import SimulationResult
from repro.telemetry import current as current_telemetry


class VectorBackend(ExecutionBackend):
    """Vectorizes qualifying specs in lockstep batches; runs the rest serially.

    The counters ``vectorized_jobs``, ``fallback_jobs``, ``vector_groups``,
    and ``mega_batches`` accumulate across :meth:`run` calls (like the
    result cache's hit/miss counters) and are included in :meth:`describe`,
    so run reports show how much of a sweep actually vectorized and how
    many kernel launches it cost.
    """

    name = "vector"

    def __init__(self) -> None:
        self.fallback = SerialBackend()
        self.vectorized_jobs = 0
        self.fallback_jobs = 0
        self.vector_groups = 0
        self.mega_batches = 0

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        tele = current_telemetry()
        jobs = list(jobs)
        results: list[SimulationResult | None] = [None] * len(jobs)
        batches: dict[Any, list[int]] = {}
        fallback_indices: list[int] = []
        # Placement probes vector support once per configuration — on a
        # cold process that also pays the engine/kernel modules' import
        # cost (the deferred import below), so it is timed as build work
        # rather than left outside the phase accounting.
        with tele.span("build", kind="phase", backend=self.name, op="group"):
            from repro.sim.vector import VectorSimulator
            from repro.sim.vector.support import placement

            for index, job in enumerate(jobs):
                place = placement(job)
                if place.reason is None:
                    batches.setdefault(place.batch, []).append(index)
                    continue
                fallback_indices.append(index)
                if tele.enabled:
                    # Name the fallback at the decision point — a silent
                    # serial detour in a big sweep is exactly what the
                    # telemetry layer exists to surface.
                    cache_key = getattr(job, "cache_key", None)
                    key = cache_key() if callable(cache_key) else None
                    tele.event(
                        "vector_fallback",
                        reason=place.reason,
                        job=index,
                        # Spec-hash prefix so `telemetry summarize` can
                        # name *which* configurations fell back, not
                        # just how many; a spec with no hash names none.
                        spec=key[:10] if key else None,
                    )
        for done, indices in enumerate(batches.values(), start=1):
            with tele.span(
                "build", kind="phase", backend=self.name, jobs=len(indices)
            ):
                batch = VectorSimulator.from_specs([jobs[index] for index in indices])
            if tele.enabled:
                tele.event(
                    "vector_batch",
                    groups=batch.num_groups,
                    jobs=len(indices),
                    mega=batch.num_groups > 1,
                )
            for index, result in zip(indices, batch.run()):
                results[index] = result
            self.vector_groups += batch.num_groups
            if tele.enabled:
                tele.progress("vector batches", done, len(batches))
        if fallback_indices:
            fresh = self.fallback.run([jobs[index] for index in fallback_indices])
            for index, result in zip(fallback_indices, fresh):
                results[index] = result
        self.vectorized_jobs += len(jobs) - len(fallback_indices)
        self.fallback_jobs += len(fallback_indices)
        self.mega_batches += len(batches)
        return results  # type: ignore[return-value]

    def result_layout(self, job: RunJob) -> str:
        """The vector layout for vectorized jobs, the serial one otherwise.

        A vectorized result is a function of its (spec, seed) alone, so it
        caches per job — under its own layout, so a scalar-layout entry is
        never served to a vectorized job or vice versa.
        """
        from repro.sim.vector import RESULT_LAYOUT
        from repro.sim.vector.support import placement

        if placement(job).reason is None:
            return RESULT_LAYOUT
        return self.fallback.result_layout(job)

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "vectorized_jobs": self.vectorized_jobs,
            "fallback_jobs": self.fallback_jobs,
            "vector_groups": self.vector_groups,
            "mega_batches": self.mega_batches,
            "fallback": self.fallback.describe(),
        }
