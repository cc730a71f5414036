"""On-disk memoisation of simulation results, persisted in the results store.

Simulations are deterministic functions of their specification, so a result
can be reused whenever the exact same specification is run again — which
happens constantly while iterating on experiment post-processing, report
rendering, or verdict thresholds.  :class:`ResultCacheBackend` wraps any
execution backend and short-circuits jobs whose results are already stored.

Persistence lives in a :class:`~repro.store.ResultsStore` rooted at
``cache_dir`` (a SQLite registry plus content-addressed artifacts), so
cached results carry provenance (spec hash, code version, metrics), are
queryable and prunable (``python -m repro cache stats|prune``), and share
one durable layer with campaigns.  A corrupt or unreadable artifact counts
as a miss, is re-run, and is replaced by a fresh entry.

Only jobs that expose a stable ``cache_key()`` (notably
:class:`~repro.experiments.plan.RunSpec`) participate; jobs without one, or
whose key is ``None``, are always delegated to the inner backend and never
stored, because there is no safe identity to file them under.  Entries are
filed per *result layout* (``ExecutionBackend.result_layout``): the scalar
layout for the serial and process-pool engines, the vector layout for vectorized
jobs, so a vector-engine result is never served to a serial run or vice
versa.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Sequence

from repro.exec.backends import ExecutionBackend, RunJob, SerialBackend
from repro.sim.results import SimulationResult
from repro.telemetry import current as current_telemetry


class ResultCacheBackend(ExecutionBackend):
    """Caches results of an inner backend in a results store at ``cache_dir``.

    The store is opened lazily (so merely constructing the backend never
    touches disk) and writes are atomic/idempotent (see
    :class:`~repro.store.ResultsStore`), so a crashed or interrupted sweep
    never leaves a truncated entry behind.  The ``hits``/``misses``
    counters accumulate across :meth:`run` calls and are included in
    :meth:`describe`, so run reports show how much of a sweep was served
    from cache.
    """

    name = "cached"

    def __init__(
        self, cache_dir: str | os.PathLike[str], inner: ExecutionBackend | None = None
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.inner = inner or SerialBackend()
        self.hits = 0
        self.misses = 0
        self._store = None

    @property
    def store(self):
        """The backing :class:`~repro.store.ResultsStore` (opened on demand)."""
        if self._store is None:
            from repro.store import ResultsStore

            self._store = ResultsStore(self.cache_dir)
        return self._store

    def run(self, jobs: Sequence[RunJob]) -> list[SimulationResult]:
        tele = current_telemetry()
        jobs = list(jobs)
        results: list[SimulationResult | None] = [None] * len(jobs)
        keys: list[tuple[str, int, str] | None] = []
        missing: list[int] = []
        with tele.span("commit", kind="phase", backend=self.name, op="lookup"):
            for index, job in enumerate(jobs):
                key = self._key_of(job)
                keys.append(key)
                cached = self.store.get_result(*key) if key is not None else None
                if cached is not None:
                    self.hits += 1
                    results[index] = cached
                else:
                    self.misses += 1
                    missing.append(index)
        if tele.enabled:
            tele.event(
                "cache_lookup",
                jobs=len(jobs),
                hits=len(jobs) - len(missing),
                misses=len(missing),
            )
        if missing:
            fresh = self.inner.run([jobs[index] for index in missing])
            with tele.span(
                "commit", kind="phase", backend=self.name, op="store", jobs=len(missing)
            ):
                for index, result in zip(missing, fresh):
                    results[index] = result
                    key = keys[index]
                    if key is not None:
                        # put_run is idempotent: a pre-existing row (e.g. one
                        # whose artifact bytes were corrupted on disk — the
                        # miss we just recovered from) keeps its provenance
                        # while the artifact write heals the damaged file.
                        self.store.put_run(*key, result)
        return results  # type: ignore[return-value]

    def result_layout(self, job: RunJob) -> str:
        return self.inner.result_layout(job)

    def close(self) -> None:
        """Close the backing store's connection (and the inner backend)."""
        if self._store is not None:
            self._store.close()
            self._store = None
        self.inner.close()

    def describe(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "cache_dir": str(self.cache_dir),
            "hits": self.hits,
            "misses": self.misses,
            "inner": self.inner.describe(),
        }

    # -- Internals -------------------------------------------------------------

    def _key_of(self, job: RunJob) -> tuple[str, int, str] | None:
        key_method = getattr(job, "cache_key", None)
        if not callable(key_method):
            return None
        # The store row identifies (spec, seed, result layout): results from
        # the reference scalar layout are shared between serial and
        # process-pool runs (they are bit-identical), and other layouts are
        # namespaced by the layout string.
        key = key_method()
        if key is None:
            return None
        seed = getattr(job, "seed", 0)
        return key, int(seed), self.inner.result_layout(job)
