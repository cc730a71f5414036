"""Declarative sweep plans.

The experiment functions used to be nested for-loops that each built
configurations and ran them inline, which welded the *what* (the
protocol × adversary × seed grid) to the *how* (serial, in-process
execution).  This module turns the grid into data:

* :func:`factory` captures "call this class with these arguments" as a
  picklable value, so an adversary can be constructed *fresh inside each
  run* — possibly in another process — instead of being a closure;
* :class:`RunSpec` is one execution: protocol, adversary factory, seed, and
  engine options.  It can build its configuration on demand and derives a
  stable content hash for result caching;
* :class:`SweepPlan` is an ordered list of specs with grouping metadata
  (one group = one table row aggregated over seed replicates), executed by
  any :class:`~repro.exec.backends.ExecutionBackend`.

Because specs are plain data, the same plan can be executed serially, over a
process pool, or against a result cache, and must produce identical results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.adversary.base import Adversary
from repro.exec.backends import ExecutionBackend, SerialBackend
from repro.metrics.summary import aggregate_summaries
from repro.protocols.base import BackoffProtocol
from repro.sim.config import SimulationConfig
from repro.sim.results import SimulationResult

#: Bump when the engine's observable behaviour changes in a way that makes
#: previously cached results stale (randomness layout, metric definitions…).
SPEC_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class Factory:
    """A deferred, picklable constructor call.

    ``fn`` must be importable by reference (a module-level class or
    function); arguments may themselves be factories, which are built
    recursively.  Two factories with equal fields build equal objects, which
    is what makes :meth:`RunSpec.cache_key` meaningful.
    """

    fn: Callable[..., Any]
    args: tuple[Any, ...] = ()
    kwargs: tuple[tuple[str, Any], ...] = ()

    def build(self) -> Any:
        """Construct a fresh instance (sub-factories built recursively)."""
        args = tuple(_build_value(value) for value in self.args)
        kwargs = {name: _build_value(value) for name, value in self.kwargs}
        return self.fn(*args, **kwargs)

    def canonical(self) -> dict[str, Any]:
        """A JSON-friendly canonical form used for hashing."""
        return {
            "factory": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "args": [_canonical_value(value) for value in self.args],
            "kwargs": {name: _canonical_value(value) for name, value in self.kwargs},
        }


def factory(fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Factory:
    """Shorthand for building a :class:`Factory` (kwargs stored sorted)."""
    return Factory(fn, tuple(args), tuple(sorted(kwargs.items())))


def _build_value(value: Any) -> Any:
    return value.build() if isinstance(value, Factory) else value


def _canonical_value(value: Any) -> Any:
    """Reduce a value to JSON-serialisable canonical data, or raise."""
    if isinstance(value, Factory):
        return value.canonical()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _canonical_value(item) for key, item in value.items()}
    describe = getattr(value, "describe", None)
    if callable(describe):
        return {"class": type(value).__qualname__, "describe": describe()}
    raise TypeError(f"cannot canonicalise {type(value).__name__!r} for hashing")


@dataclass(frozen=True)
class RunSpec:
    """One fully-specified execution of the simulator.

    The adversary is given as a :class:`Factory` (or any zero-argument
    callable) because adversaries carry mutable state and must be built
    fresh per run; the protocol is immutable configuration and is held
    directly.  A spec built from factories is picklable and hashable, which
    is what process pools and the result cache require.
    """

    protocol: BackoffProtocol
    adversary: Factory | Callable[[], Adversary]
    seed: int
    max_slots: int = 200_000
    collect_potential: bool = False
    #: Windowed dynamics sampling interval (0 = off).  Deliberately excluded
    #: from :meth:`cache_key` — dynamics are observability, not results, so
    #: a spec hashes the same with or without them.
    dynamics_window: int = 0

    def build_config(self) -> SimulationConfig:
        adversary = (
            self.adversary.build()
            if isinstance(self.adversary, Factory)
            else self.adversary()
        )
        return SimulationConfig(
            protocol=self.protocol,
            adversary=adversary,
            seed=self.seed,
            max_slots=self.max_slots,
            collect_potential=self.collect_potential,
            dynamics_window=self.dynamics_window,
        )

    def vector_support(self) -> str | None:
        """Why this spec cannot vectorize, or ``None`` if it can.

        The :class:`~repro.exec.vector_backend.VectorBackend` batches specs
        for which this returns ``None`` (grouped by everything but the
        seed) through the lockstep engine and runs the rest on its fallback
        backend.  The answer depends only on the spec's declarative content
        — protocol type, adversary composition, and engine options — so a
        plan can be partitioned before anything runs.
        """
        from repro.sim.vector.support import vector_support

        return vector_support(self)

    def cache_key(self) -> str | None:
        """Stable content hash of the spec, or ``None`` if not hashable.

        ``None`` (e.g. for a plain-callable adversary) means the result
        cache will always re-run this spec rather than risk a wrong hit.
        """
        try:
            canonical = {
                "schema": SPEC_SCHEMA_VERSION,
                "protocol": _canonical_value(self.protocol),
                "adversary": _canonical_value(self.adversary),
                "seed": self.seed,
                "max_slots": self.max_slots,
                # Every run stops drained; the constant keeps stored hashes.
                "stop_when_drained": True,
                # No run records a trace; the constant keeps stored hashes.
                "collect_trace": False,
                "collect_potential": self.collect_potential,
            }
        except TypeError:
            return None
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class SweepGroup:
    """One table row's worth of specs: a configuration replicated over seeds."""

    group_id: int
    protocol_name: str
    columns: tuple[tuple[str, Any], ...]
    spec_indices: tuple[int, ...]
    seeds: tuple[int, ...]


class SweepPlan:
    """An ordered collection of run specs with row-grouping metadata."""

    def __init__(self) -> None:
        self._specs: list[RunSpec] = []
        self._groups: list[SweepGroup] = []

    @property
    def specs(self) -> list[RunSpec]:
        return list(self._specs)

    @property
    def groups(self) -> list[SweepGroup]:
        return list(self._groups)

    def __len__(self) -> int:
        return len(self._specs)

    def add_group(
        self,
        protocol: BackoffProtocol,
        adversary: Factory | Callable[[], Adversary],
        seeds: Sequence[int],
        *,
        columns: Mapping[str, Any] | None = None,
        max_slots: int = 200_000,
        collect_potential: bool = False,
        dynamics_window: int = 0,
    ) -> int:
        """Add one configuration replicated over ``seeds``; returns group id.

        Every seed becomes one :class:`RunSpec`; the group remembers which
        specs belong to it so results can be re-assembled into aggregate
        rows after any backend has executed the flat spec list.
        """
        if not seeds:
            raise ValueError("at least one seed is required")
        start = len(self._specs)
        for seed in seeds:
            self._specs.append(
                RunSpec(
                    protocol=protocol,
                    adversary=adversary,
                    seed=seed,
                    max_slots=max_slots,
                    collect_potential=collect_potential,
                    dynamics_window=dynamics_window,
                )
            )
        group = SweepGroup(
            group_id=len(self._groups),
            protocol_name=protocol.name,
            columns=tuple(columns.items()) if columns else (),
            spec_indices=tuple(range(start, len(self._specs))),
            seeds=tuple(seeds),
        )
        self._groups.append(group)
        return group.group_id

    def run(self, backend: ExecutionBackend | None = None) -> "PlanResults":
        """Execute every spec on ``backend`` (serial by default)."""
        backend = backend or SerialBackend()
        results = backend.run(self._specs)
        return PlanResults(self, results)

    def vector_summary(self) -> dict[str, Any]:
        """How much of the plan the vector backend batches, and how.

        Groups share one spec per seed, so a group either vectorizes
        entirely or not at all; the summary maps each non-vectorizable
        group id to its reason.  ``vector_groups`` counts the lockstep
        replication groups and ``mega_batches`` the kernel launches, both
        from the placement rule the
        :class:`~repro.exec.vector_backend.VectorBackend` runs by
        (:func:`~repro.sim.vector.support.placement`), so the summary shows
        what a run will do.  Placement is memoised per configuration, so a
        large campaign plan re-probing identical configurations pays for
        each only once.
        """
        from repro.sim.vector.support import placement

        reasons: dict[int, str] = {}
        vectorizable_specs = 0
        group_keys: set[Any] = set()
        batch_keys: set[Any] = set()
        for group in self._groups:
            spec = self._specs[group.spec_indices[0]]
            place = placement(spec)
            if place.reason is not None:
                reasons[group.group_id] = place.reason
                continue
            vectorizable_specs += len(group.spec_indices)
            group_keys.add(place.group)
            batch_keys.add(place.batch)
        return {
            "total_specs": len(self._specs),
            "vectorizable_specs": vectorizable_specs,
            "vector_groups": len(group_keys),
            "mega_batches": len(batch_keys),
            "fallback_groups": reasons,
        }


@dataclass
class PlanResults:
    """Results of executing a plan, aligned with its specs."""

    plan: SweepPlan
    results: list[SimulationResult] = field(default_factory=list)

    def __iter__(self) -> Iterator[tuple[RunSpec, SimulationResult]]:
        return iter(zip(self.plan.specs, self.results))

    def for_group(self, group_id: int) -> list[SimulationResult]:
        group = self.plan.groups[group_id]
        return [self.results[index] for index in group.spec_indices]

    def seeded_group(self, group_id: int) -> list[tuple[int, SimulationResult]]:
        """``(seed, result)`` pairs of one group, in seed order."""
        group = self.plan.groups[group_id]
        return list(zip(group.seeds, self.for_group(group_id)))

    def group_rows(self) -> list[dict[str, Any]]:
        """One aggregated table row per group, in group order."""
        from repro.telemetry import current as current_telemetry

        with current_telemetry().span(
            "finalize", kind="phase", op="aggregate-rows", groups=len(self.plan.groups)
        ):
            return [
                aggregate_replicate_row(
                    self.for_group(group.group_id),
                    protocol_name=group.protocol_name,
                    extra_columns=dict(group.columns),
                )
                for group in self.plan.groups
            ]


def aggregate_replicate_row(
    results: Sequence[SimulationResult],
    *,
    protocol_name: str,
    extra_columns: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Flatten replicate results into one row of means.

    The row contains the protocol name, any caller-provided sweep columns,
    and the replicate means of the headline metrics.  This is the
    aggregation behind :meth:`PlanResults.group_rows`.
    """
    summaries = [result.summary() for result in results]
    aggregated = aggregate_summaries(summaries)
    row: dict[str, Any] = {"protocol": protocol_name}
    if extra_columns:
        row.update(extra_columns)
    row.update(
        {
            "replicates": len(results),
            "throughput": aggregated["throughput"].mean,
            "implicit_throughput": aggregated["implicit_throughput"].mean,
            "mean_accesses": aggregated["mean_accesses"].mean,
            "max_accesses": aggregated["max_accesses"].mean,
            "mean_sends": aggregated["mean_sends"].mean,
            "mean_listens": aggregated["mean_listens"].mean,
            "max_backlog": aggregated["max_backlog"].mean,
            "makespan": aggregated["makespan"].mean,
            "active_slots": aggregated["num_active_slots"].mean,
            "jammed_active": aggregated["num_jammed_active"].mean,
            "arrivals": aggregated["num_arrivals"].mean,
            "delivered": aggregated["num_delivered"].mean,
            "drained": all(summary.drained for summary in summaries),
        }
    )
    return row
