"""The vector execution backend.

:class:`VectorBackend` accepts an arbitrary batch of jobs, groups the specs
that can vectorize by everything-but-the-seed, **stacks compatible groups
into mega-batches** (one ragged lockstep launch per protocol/arrival/jammer
kernel family, parameters promoted to per-row arrays), runs each mega-batch
through one :class:`~repro.sim.vector.VectorSimulator` call, and
transparently delegates every remaining job to a fallback backend (serial
by default).  Results always come back in job order, so the backend is a
drop-in replacement anywhere a backend is accepted.

Contract differences from the other backends:

* fallback results are *identical* to what the fallback backend produces on
  its own (it is literally the same code path);
* vectorized results are **statistically equivalent** to serial results,
  not bit-identical — the vector engine draws per-replication Philox
  streams instead of per-packet ``random.Random`` streams.  A vectorized
  result is a function of its (spec, seed) alone, whatever batch or
  mega-batch it runs in, so mega-batching changes wall-clock only, and the
  result cache files vectorized results per job under the one vector
  layout (:data:`~repro.sim.vector.RESULT_LAYOUT`).  See
  ``repro.analysis.equivalence`` for the checking harness.

Only jobs that declare their vectorizability (``vector_support()``, i.e.
:class:`~repro.experiments.plan.RunSpec`) are eligible; opaque jobs such as
:class:`~repro.exec.backends.ConfigJob` always take the fallback path.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

from repro.exec.backends import ExecutionBackend, RunJob, SerialBackend
from repro.sim.results import SimulationResult
from repro.telemetry import current as current_telemetry


@functools.lru_cache(maxsize=4096)
def _cached_group_key(job: Any) -> Any | None:
    """Hashable everything-but-the-seed identity, or ``None`` to fall back.

    ``vector_support`` builds the spec's adversary to introspect it, and
    both the result cache (via ``result_layout``) and the backend's own
    grouping probe every job — memoising by the (frozen, hashable) spec
    avoids rebuilding the same adversary several times per job per run.
    """
    if job.vector_support() is not None:
        return None
    return (
        job.protocol,
        job.adversary,
        job.max_slots,
        job.stop_when_drained,
        job.collect_trace,
        job.collect_potential,
        getattr(job, "dynamics_window", 0),
    )


def _qualname(instance: Any) -> str:
    cls = type(instance)
    return f"{cls.__module__}.{cls.__qualname__}"


@functools.lru_cache(maxsize=4096)
def _cached_mega_key(job: Any) -> Any | None:
    """The kernel-family identity that decides mega-batch compatibility.

    Two vector groups stack into one lockstep mega-batch exactly when they
    share the protocol class, the arrival-process class, the jammer class,
    and the engine options — parameters may differ (they are promoted to
    per-row arrays by the kernels).  Scheduled components only merge when
    the whole schedule is identical, so their canonical identity (the
    same ``scheduled_identity`` the engine's ``from_spec_groups``
    validation compares) joins the key.  ``None`` when the job cannot
    vectorize at all, or when it vectorizes but carries a named mega-batch
    exclusion (``mega_batch_exclusion``) — trace/potential outputs and
    backlog-coupled adversaries run in their own lockstep batch.
    """
    from repro.sim.vector.support import mega_batch_exclusion, scheduled_identity

    if job.vector_support() is not None:
        return None
    if mega_batch_exclusion(job) is not None:
        return None
    config = job.build_config()
    adversary = config.adversary
    components = tuple(
        (_qualname(component), scheduled_identity(component))
        for component in (adversary.arrival_process, adversary.jammer)
    )
    return (
        _qualname(job.protocol),
        components,
        job.max_slots,
        job.stop_when_drained,
        getattr(job, "dynamics_window", 0),
    )


def vector_group_key(job: RunJob) -> Any | None:
    """Public everything-but-the-seed grouping identity of one job.

    ``None`` means the job takes the serial fallback.  This is the key the
    backend groups by, exposed so the planning layer
    (:meth:`~repro.experiments.plan.SweepPlan.vector_summary`) can count
    lockstep groups without running anything.
    """
    if not callable(getattr(job, "vector_support", None)):
        return None
    try:
        # The lru_cache hashes the job, which also guarantees the derived
        # key tuple is hashable.
        return _cached_group_key(job)
    except (AttributeError, TypeError):
        return None


def vector_mega_key(job: RunJob) -> Any | None:
    """Public mega-batch compatibility identity of one job (or ``None``)."""
    try:
        return _cached_mega_key(job)
    except (AttributeError, TypeError):
        return None


class VectorBackend(ExecutionBackend):
    """Vectorizes qualifying spec groups; falls back serially otherwise.

    Parameters
    ----------
    fallback:
        Backend used for jobs the vector engine cannot run (defaults to
        :class:`SerialBackend`).
    mega_batch:
        When True (the default), compatible replication groups are stacked
        into one lockstep launch per kernel family; per-group execution
        (``mega_batch=False``) produces bit-identical results with one
        kernel launch per group — the benchmark baseline.

    The counters ``vectorized_jobs``, ``fallback_jobs``, ``vector_groups``,
    and ``mega_batches`` accumulate across :meth:`run` calls (like the
    result cache's hit/miss counters) and are included in :meth:`describe`,
    so run reports show how much of a sweep actually vectorized and how
    many kernel launches it cost.
    """

    name = "vector"

    def __init__(
        self,
        fallback: ExecutionBackend | None = None,
        *,
        mega_batch: bool = True,
    ) -> None:
        self.fallback = fallback or SerialBackend()
        self.mega_batch = mega_batch
        self.vectorized_jobs = 0
        self.fallback_jobs = 0
        self.vector_groups = 0
        self.mega_batches = 0

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        tele = current_telemetry()
        jobs = list(jobs)
        results: list[SimulationResult | None] = [None] * len(jobs)
        groups: dict[Any, list[int]] = {}
        fallback_indices: list[int] = []
        # Grouping probes every job's vector support — on a cold process
        # that also pays the engine/kernel modules' import cost (the
        # deferred import below), so it is timed as build work rather
        # than left outside the phase accounting.
        with tele.span("build", kind="phase", backend=self.name, op="group"):
            from repro.sim.vector import VectorSimulator
            for index, job in enumerate(jobs):
                key = self._group_key(job)
                if key is None:
                    fallback_indices.append(index)
                    if tele.enabled:
                        # Name the fallback at the decision point — a silent
                        # serial detour in a big sweep is exactly what the
                        # telemetry layer exists to surface.
                        support = getattr(job, "vector_support", None)
                        reason = support() if callable(support) else "opaque job"
                        cache_key = getattr(job, "cache_key", None)
                        tele.event(
                            "vector_fallback",
                            reason=str(reason or "ungroupable"),
                            job=index,
                            # Spec-hash prefix so `telemetry summarize` can
                            # name *which* configurations fell back, not
                            # just how many.
                            spec=(
                                cache_key()[:10]
                                if callable(cache_key)
                                else None
                            ),
                        )
                else:
                    groups.setdefault(key, []).append(index)
            # Stack compatible groups into mega-batches: one ragged lockstep
            # launch per kernel family instead of one launch per configuration.
            batches: dict[Any, list[list[int]]] = {}
            for key, indices in groups.items():
                mega_key = (
                    self._mega_key(jobs[indices[0]]) if self.mega_batch else None
                )
                batches.setdefault(
                    mega_key if mega_key is not None else key, []
                ).append(indices)
        done_batches = 0
        for index_groups in batches.values():
            flat = [index for indices in index_groups for index in indices]
            if tele.enabled:
                tele.event(
                    "vector_batch",
                    groups=len(index_groups),
                    jobs=len(flat),
                    mega=len(index_groups) > 1,
                )
            with tele.span(
                "build", kind="phase", backend=self.name, jobs=len(flat)
            ):
                if len(index_groups) == 1:
                    batch = VectorSimulator.from_specs(
                        [jobs[index] for index in index_groups[0]]
                    )
                else:
                    batch = VectorSimulator.from_spec_groups(
                        [[jobs[index] for index in indices] for indices in index_groups]
                    )
            for index, result in zip(flat, batch.run()):
                results[index] = result
            done_batches += 1
            if tele.enabled:
                tele.progress("vector batches", done_batches, len(batches))
        if fallback_indices:
            fresh = self.fallback.run([jobs[index] for index in fallback_indices])
            for index, result in zip(fallback_indices, fresh):
                results[index] = result
        self.vectorized_jobs += len(jobs) - len(fallback_indices)
        self.fallback_jobs += len(fallback_indices)
        self.vector_groups += len(groups)
        self.mega_batches += len(batches)
        return results  # type: ignore[return-value]

    def result_layout(self, job: RunJob) -> str:
        """The vector layout for vectorized jobs, the fallback's otherwise.

        A vectorized result is a function of its (spec, seed) alone, so it
        caches per job — under its own layout, so a scalar-layout entry is
        never served to a vectorized job or vice versa.
        """
        if self._group_key(job) is not None:
            from repro.sim.vector import RESULT_LAYOUT

            return RESULT_LAYOUT
        return self.fallback.result_layout(job)

    _group_key = staticmethod(vector_group_key)
    _mega_key = staticmethod(vector_mega_key)

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "vectorized_jobs": self.vectorized_jobs,
            "fallback_jobs": self.fallback_jobs,
            "vector_groups": self.vector_groups,
            "mega_batches": self.mega_batches,
            "mega_batch": self.mega_batch,
            "fallback": self.fallback.describe(),
        }
