"""Which configurations the vector engine runs, and which run together.

The vector engine covers every built-in protocol tier on one access
calendar: the send-only protocols whose per-packet state reduces to a
handful of scalars, *and* the sensing tier (LOW-SENSING BACKOFF, its
decoupled A1 variant, Sawtooth, and full-sensing multiplicative weights),
whose kernels update each accessor from its replication's ternary
feedback.  Adversaries qualify when they are a
:class:`~repro.adversary.composite.CompositeAdversary` of an oblivious
arrival process (whose whole schedule can be precomputed as an array) and
a jammer whose per-slot decision depends on at most the slot index, a
budget counter, and the backlog — all of which the engine tracks as
arrays.  Any other adversary, such as
:class:`~repro.adversary.adaptive.BacklogCouplingAdversary`, whose
injections read the live backlog, runs on the scalar engine.

Feedback jammers vectorize too, via the engine's feedback loop: reactive
jammers see each resolving row's senders, and contention-reading adaptive
jammers are fed each row's contention.  Potential tracking and dynamics
trajectories are vectorized *outputs*, kept per row and materialized into
potential samples and trajectories.  Execution traces are not: no
experiment or scenario collects one, so a traced spec runs on the scalar
engine, whose trace is the reference (:data:`TRACE_REASON`).

**The kernel tables are the registry.**  A protocol vectorizes when its
exact type has an entry in
:data:`~repro.sim.vector.protocols.PROTOCOL_KERNELS`; an arrival process or
jammer when its exact type has one in
:data:`~repro.sim.vector.adversaries.ARRIVAL_KERNELS` or
:data:`~repro.sim.vector.adversaries.JAMMER_KERNELS`.  The kernel factories
read the same tables, so what this module accepts is exactly what the
engine can build, and the exact-type match keeps subclasses, which may
override behaviour a kernel does not model, on the scalar engine.
Piecewise schedules (:class:`~repro.adversary.scheduled.ScheduledArrivals`
and :class:`~repro.adversary.scheduled.ScheduledJamming`) are vetted
phase-by-phase: a schedule vectorizes exactly when every phase component
would on its own, and the reason names the first offending phase otherwise.

**One placement rule.**  :func:`placement` maps a spec to its fallback
reason, or to two keys: its *group key*, the spec with its seed set to 0
(the seed replicas of one configuration), and its *batch key*, which names
the groups that stack into one ragged launch: the protocol class, the
jammer class with its schedule identity, and the engine options
(``max_slots``, ``collect_potential`` and the dynamics window), which the
engine takes from it.  It has no exclusions and no arrival part, because
each group keeps its own arrival schedule inside the batch.  The
:class:`~repro.exec.vector_backend.VectorBackend`, its result layout,
:meth:`~repro.experiments.plan.SweepPlan.vector_summary` and
:meth:`~repro.sim.vector.engine.VectorSimulator.from_specs` all place specs
with it, and it is memoised per configuration.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from typing import Any, NamedTuple

from repro.adversary.composite import CompositeAdversary
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.sim.vector.adversaries import ARRIVAL_KERNELS, JAMMER_KERNELS
from repro.sim.vector.protocols import PROTOCOL_KERNELS

#: The fallback reason of a spec that collects an execution trace.
TRACE_REASON = "execution traces run on the scalar engine"


def lockstep_components(adversary: Any) -> tuple[Any, Any] | None:
    """The ``(arrival process, jammer)`` pair the engine drives, or ``None``.

    A composite contributes its two parts.  Any other adversary is custom
    and runs on the scalar engine.
    """
    if isinstance(adversary, CompositeAdversary):
        return adversary.arrival_process, adversary.jammer
    return None


def scheduled_identity(jammer: Any) -> str | None:
    """Canonical identity of a jamming schedule, ``None`` for other jammers.

    Groups stack only when their jamming schedules are *identical* (the
    kernel runs the first group's), so this string is part of the batch
    key.  Arrival schedules need none: each group keeps its own.
    """
    if isinstance(jammer, ScheduledJamming):
        return json.dumps(jammer.describe(), sort_keys=True)
    return None


def protocol_support(protocol: Any) -> str | None:
    """``None`` if the protocol has a vector kernel, else the reason not."""
    if type(protocol) in PROTOCOL_KERNELS:
        return None
    return f"protocol {type(protocol).__name__} has no vector kernel"


def arrival_process_support(process: Any) -> str | None:
    """``None`` if the arrival process has a vector schedule, else the reason.

    Schedules recurse phase-by-phase, so the reason for a non-vectorizable
    schedule names the offending phase (and, for nested schedules, the
    whole phase path).
    """
    kind = type(process)
    if kind not in ARRIVAL_KERNELS:
        return f"arrival process {kind.__name__} has no vector schedule"
    if kind is ScheduledArrivals:
        for index, phase in enumerate(process.schedule.phases):
            reason = arrival_process_support(phase.component)
            if reason is not None:
                return f"arrival schedule phase {index}: {reason}"
    return None


def jammer_support(jammer: Any) -> str | None:
    """``None`` if the jammer has a vector kernel, else the reason not."""
    kind = type(jammer)
    if kind not in JAMMER_KERNELS:
        return f"jammer {kind.__name__} has no vector kernel"
    if kind is ScheduledJamming:
        if jammer.reactive:
            return "jamming schedule contains a reactive phase"
        for index, phase in enumerate(jammer.schedule.phases):
            reason = jammer_support(phase.component)
            if reason is not None:
                return f"jamming schedule phase {index}: {reason}"
    return None


def adversary_support(adversary: Any) -> str | None:
    """``None`` if the adversary decomposes into vectorizable parts."""
    components = lockstep_components(adversary)
    if components is None:
        return (
            f"adversary {type(adversary).__name__} is not a CompositeAdversary "
            "(custom adversaries run on the scalar engine)"
        )
    arrival_process, jammer = components
    return arrival_process_support(arrival_process) or jammer_support(jammer)


def vector_support(spec: Any) -> str | None:
    """``None`` if a :class:`~repro.experiments.plan.RunSpec` can vectorize.

    Builds the spec's configuration (and therefore a fresh adversary) to
    introspect the concrete arrival/jammer types; the built objects are
    discarded, so this never leaks state into the actual run.
    """
    if spec.collect_trace:
        return TRACE_REASON
    reason = protocol_support(spec.protocol)
    if reason is not None:
        return reason
    try:
        config = spec.build_config()
    except Exception as exc:  # pragma: no cover - defensive
        return f"spec could not build its configuration: {exc}"
    return adversary_support(config.adversary)


class Placement(NamedTuple):
    """Where the vector backend runs one spec.

    ``reason`` says why the spec falls back to the scalar engine, and is
    ``None`` when it vectorizes: then the spec runs in the lockstep group
    of its ``group`` key, inside the launch of its ``batch`` key.
    """

    reason: str | None
    group: Any = None
    batch: Any = None


class _BatchKey(NamedTuple):
    protocol: type
    #: The jammer class and its schedule identity.
    jammer: tuple[type, str | None]
    #: max_slots, collect_potential and the dynamics window: the engine's
    #: options for the batch.
    options: tuple[int, bool, int]


def placement(spec: Any) -> Placement:
    """The one lockstep placement rule: a spec's fallback reason or its keys.

    Memoised by the group key, so a plan that replicates a configuration
    over hundreds of seeds probes :func:`vector_support` once for it.
    Opaque jobs (no ``vector_support``) and specs that cannot be hashed
    into a group fall back.
    """
    if not callable(getattr(spec, "vector_support", None)):
        return Placement("opaque job: only RunSpecs vectorize")
    group = dataclasses.replace(spec, seed=0)
    try:
        hash(group)
    except TypeError:
        return Placement(
            vector_support(spec)
            or "spec is not hashable, so it cannot join a lockstep group"
        )
    return _placement(group)


@functools.lru_cache(maxsize=4096)
def _placement(group: Any) -> Placement:
    reason = vector_support(group)
    if reason is not None:
        return Placement(reason)
    _, jammer = lockstep_components(group.build_config().adversary)
    batch = _BatchKey(
        type(group.protocol),
        (type(jammer), scheduled_identity(jammer)),
        (group.max_slots, group.collect_potential, group.dynamics_window),
    )
    return Placement(None, group, batch)


def batch_difference(first: Placement, other: Placement) -> str:
    """What keeps two vectorizable specs out of one lockstep batch."""
    mine, theirs = first.batch, other.batch
    if mine.protocol is not theirs.protocol:
        return (
            f"protocol class {mine.protocol.__name__} vs "
            f"{theirs.protocol.__name__}"
        )
    (my_class, my_schedule), (their_class, their_schedule) = mine.jammer, theirs.jammer
    if my_class is not their_class:
        return f"jammer class {my_class.__name__} vs {their_class.__name__}"
    if my_schedule != their_schedule:
        return "the scheduled jammers differ in their schedule"
    return (
        "engine options (max_slots, collect_potential, dynamics window) "
        f"{mine.options} vs {theirs.options}"
    )
