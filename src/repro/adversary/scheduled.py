"""Adapters that drive arrival processes and jammers through a schedule.

A :class:`~repro.scenarios.schedule.Schedule` describes piecewise
time-varying adversary behaviour; these adapters make one behave like a
single :class:`~repro.adversary.arrivals.ArrivalProcess` or
:class:`~repro.adversary.jamming.Jammer`, so a scheduled adversary composes
with everything that already accepts one (``CompositeAdversary``, the
engines, sweep plans, the scenario loader).

Phase components see *phase-local* slot indices: the adapter hands them a
view whose ``slot`` is shifted to the phase's own clock, and every other
view field passes through untouched.  Per-phase components are separate
instances, so budgeted jammers carry **per-phase** budgets — a fresh phase
starts with its own budget even if the previous phase exhausted its own
(the "budget boundary at a phase boundary" case the tests pin down).
"""

from __future__ import annotations

from random import Random
from typing import Any, Hashable, Sequence

from repro.adversary.arrivals import ArrivalProcess
from repro.adversary.jamming import Jammer
from repro.scenarios.schedule import Phase, Schedule

PacketId = Hashable


class _ShiftedView:
    """A system view whose ``slot`` is rebased to a phase-local clock.

    ``slot`` is overridden here; every other field of the
    :class:`~repro.adversary.base.SystemView` — the backlog, the contention
    and the cumulative counters — is forwarded, so a phase component reads
    the same global counts as it would outside a schedule.
    """

    __slots__ = ("_view", "slot")

    def __init__(self, view: Any, slot: int) -> None:
        self._view = view
        self.slot = slot

    def __getattr__(self, name: str) -> Any:
        return getattr(self._view, name)


def _local_view(view: Any, local_slot: int) -> Any:
    return view if local_slot == view.slot else _ShiftedView(view, local_slot)


def _as_schedule(phases: Sequence[Phase] | tuple[Schedule], expected: type, what: str) -> Schedule:
    if len(phases) == 1 and isinstance(phases[0], Schedule):
        schedule = phases[0]
    else:
        schedule = Schedule(phases)
    for index, phase in enumerate(schedule.phases):
        if not isinstance(phase.component, expected):
            raise TypeError(
                f"phase {index} of a {what} schedule must hold a"
                f" {expected.__name__}, got {type(phase.component).__name__}"
            )
    return schedule


class ScheduledArrivals(ArrivalProcess):
    """Arrivals that follow a piecewise schedule of arrival processes.

    ``ScheduledArrivals(Phase(PoissonArrivals(0.05), 1000), Phase(NoArrivals()))``
    injects Poisson traffic for 1000 slots and nothing afterwards.  Each
    phase component sees the slot on its own clock and the engine's counts
    unchanged.  The vector engine's arrival kernel table holds this class,
    and :mod:`repro.sim.vector.support` vets a schedule phase by phase
    against the same table.
    """

    def __init__(self, *phases: Phase | Schedule) -> None:
        self.schedule = _as_schedule(phases, ArrivalProcess, "ScheduledArrivals")

    def arrivals(self, view: Any, rng: Random) -> int:
        located = self.schedule.phase_at(view.slot)
        if located is None:
            return 0
        index, local_slot = located
        process: ArrivalProcess = self.schedule.phases[index].component
        return process.arrivals(_local_view(view, local_slot), rng)

    def total_planned(self) -> int | None:
        total = 0
        for phase in self.schedule.phases:
            planned = phase.component.total_planned()
            if planned is None:
                return None
            total += planned
        return total

    def exhausted(self, slot: int) -> bool:
        for index, phase in enumerate(self.schedule.phases):
            end = self.schedule.end_of(index)
            if end is not None and end <= slot:
                continue  # phase lies entirely in the past
            local_slot = max(0, slot - self.schedule.start_of(index))
            if not phase.component.exhausted(local_slot):
                return False
        return True

    def describe(self) -> dict[str, object]:
        return {"type": "ScheduledArrivals", "schedule": self.schedule.describe()}


class ScheduledJamming(Jammer):
    """Jamming that follows a piecewise schedule of jamming strategies.

    The adapter is reactive when any phase is (the engine's reactive hook
    is forwarded to the active phase; non-reactive phases never jam
    reactively) and needs contention when any phase does.  ``jams_used``
    sums the per-phase budget counters.
    """

    def __init__(self, *phases: Phase | Schedule) -> None:
        self.schedule = _as_schedule(phases, Jammer, "ScheduledJamming")
        components = [phase.component for phase in self.schedule.phases]
        self.reactive = any(jammer.reactive for jammer in components)
        self.needs_contention = any(jammer.needs_contention for jammer in components)

    def _locate(self, slot: int) -> tuple[Jammer, int] | None:
        located = self.schedule.phase_at(slot)
        if located is None:
            return None
        index, local_slot = located
        return self.schedule.phases[index].component, local_slot

    def jam(self, view: Any, rng: Random) -> bool:
        located = self._locate(view.slot)
        if located is None:
            return False
        jammer, local_slot = located
        return jammer.jam(_local_view(view, local_slot), rng)

    def reactive_jam(
        self, view: Any, senders: Sequence[PacketId], rng: Random
    ) -> bool:
        located = self._locate(view.slot)
        if located is None:
            return False
        jammer, local_slot = located
        if not jammer.reactive:
            return False
        return jammer.reactive_jam(_local_view(view, local_slot), senders, rng)

    def jams_used(self) -> int:
        return sum(phase.component.jams_used() for phase in self.schedule.phases)

    def describe(self) -> dict[str, object]:
        return {
            "type": "ScheduledJamming",
            "schedule": self.schedule.describe(),
            "reactive": self.reactive,
        }
