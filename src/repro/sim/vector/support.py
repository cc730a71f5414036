"""Which configurations the vector engine can run.

The vector engine covers every built-in protocol tier: the send-only
protocols whose per-packet state reduces to a handful of scalars, *and* the
sensing tier (LOW-SENSING BACKOFF, its decoupled A1 variant, Sawtooth, and
full-sensing multiplicative weights), whose ternary-feedback updates are
computed from the engine's per-replication feedback arrays.  Adversaries
qualify when they compose an oblivious arrival process (whose whole
schedule can be precomputed as an array) with a jammer whose per-slot
decision depends on at most the slot index, a budget counter, and the
backlog — all of which the engine tracks as arrays.

Feedback-coupled components vectorize too, via the engine's lockstep
feedback loop: reactive jammers see the current slot's per-replication
sender arrays, contention-reading adaptive jammers are fed a
per-replication contention row each slot, and coupled adversaries whose
injections and jams both read the live backlog
(:class:`~repro.adversary.adaptive.BacklogCouplingAdversary`) drive their
decisions from the engine's backlog counter.  Execution traces and
potential tracking are vectorized *outputs* — per-slot event arrays
materialized into trace records and potential samples on demand — not
blockers.  :func:`vector_support` answers "can this spec vectorize?" with
``None`` (yes) or a human-readable reason (no), and the
:class:`~repro.exec.vector_backend.VectorBackend` uses that answer to fall
back transparently; :func:`mega_batch_exclusion` names the configurations
that vectorize but must run in their own lockstep batch.

This module deliberately avoids importing numpy, so capability checks stay
importable (and cheap) even where the vector engine itself is never used.

Eligibility is decided by an **exact type** match against the registries
below *and* the declared ``vectorizable`` capability flag.  The flag
documents intent on the class; the exact-type match protects against
subclasses that override behaviour the kernels do not model.

Piecewise schedules (:class:`~repro.adversary.scheduled.ScheduledArrivals`
and :class:`~repro.adversary.scheduled.ScheduledJamming`) are vetted
phase-by-phase: a schedule stays on the fast path exactly when every phase
component would on its own — piecewise-constant compositions of
vectorizable components vectorize, and the reported reason names the first
offending phase otherwise.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.adversary.adaptive import BacklogCouplingAdversary
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff

#: Protocol classes with a vector kernel (exact type match).
VECTOR_PROTOCOLS = (
    FixedProbabilityProtocol,
    SlottedAloha,
    BinaryExponentialBackoff,
    PolynomialBackoff,
    # The sensing tier: per-packet listen/send decisions and ternary-feedback
    # state updates, computed in lockstep from per-replication feedback rows.
    LowSensingBackoff,
    DecoupledLowSensingBackoff,
    SawtoothBackoff,
    FullSensingMultiplicativeWeights,
)

#: Arrival-process classes with a vector schedule kernel (exact type match).
VECTOR_ARRIVALS = (
    NoArrivals,
    BatchArrivals,
    PoissonArrivals,
    PeriodicBurstArrivals,
    AdversarialQueueingArrivals,
)

#: Jammer classes with a vector kernel (exact type match).
VECTOR_JAMMERS = (
    NoJamming,
    BernoulliJamming,
    PeriodicJamming,
    BurstJamming,
    BudgetedRandomJamming,
    # Feedback-coupled jammers: served by the engine's lockstep feedback
    # loop (per-slot contention rows and current-slot sender arrays).
    AdaptiveContentionJammer,
    ReactiveTargetedJammer,
    ReactiveSuccessJammer,
)


def _eligible(instance: Any, registry: tuple[type, ...]) -> bool:
    return type(instance) in registry and bool(getattr(instance, "vectorizable", False))


def scheduled_identity(component: Any) -> str | None:
    """Canonical identity of a scheduled component, ``None`` otherwise.

    Mega-batches only merge groups whose schedules are *identical*; both
    the backend's compatibility key and the engine's
    ``from_spec_groups`` validation compare this exact string, so the
    merge decision and the engine's acceptance can never disagree.
    """
    import json

    if isinstance(component, (ScheduledArrivals, ScheduledJamming)):
        return json.dumps(component.describe(), sort_keys=True)
    return None


def protocol_support(protocol: Any) -> str | None:
    """``None`` if the protocol has a vector kernel, else the reason not."""
    if _eligible(protocol, VECTOR_PROTOCOLS):
        return None
    return f"protocol {type(protocol).__name__} has no vector kernel"


def arrival_process_support(process: Any) -> str | None:
    """``None`` if the arrival process has a vector schedule, else the reason.

    Schedules recurse phase-by-phase, so the reason for a non-vectorizable
    schedule names the offending phase (and, for nested schedules, the
    whole phase path).
    """
    if type(process) is ScheduledArrivals:
        for index, phase in enumerate(process.schedule.phases):
            reason = arrival_process_support(phase.component)
            if reason is not None:
                return f"arrival schedule phase {index}: {reason}"
        return None
    if _eligible(process, VECTOR_ARRIVALS):
        return None
    return f"arrival process {type(process).__name__} has no vector schedule"


def jammer_support(jammer: Any) -> str | None:
    """``None`` if the jammer has a vector kernel, else the reason not."""
    if type(jammer) is ScheduledJamming:
        if jammer.reactive:
            return "jamming schedule contains a reactive phase"
        for index, phase in enumerate(jammer.schedule.phases):
            reason = jammer_support(phase.component)
            if reason is not None:
                return f"jamming schedule phase {index}: {reason}"
        return None
    if _eligible(jammer, VECTOR_JAMMERS):
        return None
    return f"jammer {type(jammer).__name__} has no vector kernel"


def adversary_support(adversary: Any) -> str | None:
    """``None`` if the adversary decomposes into vectorizable parts."""
    if _eligible(adversary, (BacklogCouplingAdversary,)):
        # The coupled adversary fills both component roles; the engine's
        # lockstep backlog counter serves its per-slot reads.
        return None
    if not isinstance(adversary, CompositeAdversary):
        return (
            f"adversary {type(adversary).__name__} is not a CompositeAdversary "
            "(custom adversaries run on the scalar engine)"
        )
    reason = arrival_process_support(adversary.arrival_process)
    if reason is not None:
        return reason
    return jammer_support(adversary.jammer)


def vector_support(spec: Any) -> str | None:
    """``None`` if a :class:`~repro.experiments.plan.RunSpec` can vectorize.

    Builds the spec's configuration (and therefore a fresh adversary) to
    introspect the concrete arrival/jammer types; the built objects are
    discarded, so this never leaks state into the actual run.
    """
    reason = protocol_support(getattr(spec, "protocol", None))
    if reason is not None:
        return reason
    try:
        config = spec.build_config()
    except Exception as exc:  # pragma: no cover - defensive
        return f"spec could not build its configuration: {exc}"
    return adversary_support(config.adversary)


def mega_batch_exclusion(spec: Any) -> str | None:
    """Why a vectorizable spec must run in its own lockstep batch.

    ``None`` means the spec's group may stack into a mega-batch with other
    compatible groups.  A named reason means the group still vectorizes —
    it just gets its own kernel launch — mirroring the validation in
    :meth:`~repro.sim.vector.engine.VectorSimulator.from_spec_groups`.
    """
    if getattr(spec, "collect_trace", False) or getattr(
        spec, "collect_potential", False
    ):
        return (
            "trace and potential outputs are materialized per lockstep "
            "batch; such groups cannot mega-batch"
        )
    try:
        config = spec.build_config() if hasattr(spec, "build_config") else spec
    except Exception:  # pragma: no cover - defensive
        return None
    if isinstance(config.adversary, BacklogCouplingAdversary):
        return (
            "backlog-coupled adversaries read the live backlog each slot; "
            "such groups cannot mega-batch"
        )
    return None
