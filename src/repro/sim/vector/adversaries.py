"""Batched arrival schedules and jamming kernels.

Oblivious arrival processes never observe the system, so their entire
schedule is a function of the slot index (and, for Poisson traffic, private
coins): the vector engine precomputes it one *chunk* of slots at a time as a
``(replications × chunk)`` count matrix.

Jammers are one step less oblivious: budgeted strategies carry a spent
counter and :class:`~repro.adversary.jamming.BernoulliJamming` may gate on
whether any packet is active.  Both reduce to per-slot ``(replications,)``
array operations against state the engine already tracks (budget counters,
the pre-injection backlog), mirroring the scalar semantics exactly: the
decision for slot ``t`` sees the state at the end of slot ``t − 1``, and a
budget unit is spent only when a jam actually happens.  A decision may be
asked for one slot of every row, for each row's own slot, or for a block of
each row's slots at once (an idle stretch); a row's budget is spent in its
own slot order either way, so the decisions are the same.

Feedback jammers close a **feedback loop** with the engine instead of
precomputing anything:

* **adaptive** jammers (:class:`AdaptiveContentionJammerVector`) receive
  each row's pre-injection contention via :meth:`set_contention`;
* **reactive** jammers see each resolving row's senders, as (row, packet)
  index arrays, through :meth:`reactive_jam`, called after packet
  decisions but before channel resolution — exactly the scalar engine's
  step 3.

Both read only ``(R,)`` state the engine already owns, so the per-slot
cost stays a fixed number of array operations.  Every arrival schedule is
oblivious: the engine draws it a chunk ahead, and adversaries whose
injections read the live system run on the scalar engine.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from repro.adversary.arrivals import (
    AdversarialQueueingArrivals,
    BatchArrivals,
    NoArrivals,
    PeriodicBurstArrivals,
    PoissonArrivals,
)
from repro.adversary.jamming import (
    AdaptiveContentionJammer,
    BernoulliJamming,
    BudgetedRandomJamming,
    BurstJamming,
    Jammer,
    NoJamming,
    PeriodicJamming,
    ReactiveSuccessJammer,
    ReactiveTargetedJammer,
)
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.sim.vector.rng import VectorStreams

#: Slots of adversary schedule precomputed per chunk.
CHUNK_SLOTS = 512


# ---------------------------------------------------------------------------
# Arrival schedules
# ---------------------------------------------------------------------------


class VectorArrivals(abc.ABC):
    """Chunked arrival schedule for one batch.

    The schedule's end and size are its arrival process's
    (``exhausted`` and ``total_planned``), which the engine reads there.
    """

    def __init__(self, replications: int) -> None:
        self.replications = replications

    @abc.abstractmethod
    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        """Arrival counts for slots ``start .. start+count-1`` as ``(R, count)``."""


class NoArrivalsVector(VectorArrivals):
    def __init__(self, process: NoArrivals, replications: int) -> None:
        super().__init__(replications)

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        return np.zeros((self.replications, count), dtype=np.int64)


class BatchArrivalsVector(VectorArrivals):
    def __init__(self, process: BatchArrivals, replications: int) -> None:
        super().__init__(replications)
        self._n = process.n
        self._slot = process.slot

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        counts = np.zeros((self.replications, count), dtype=np.int64)
        if start <= self._slot < start + count:
            counts[:, self._slot - start] = self._n
        return counts


class PeriodicBurstArrivalsVector(VectorArrivals):
    def __init__(self, process: PeriodicBurstArrivals, replications: int) -> None:
        super().__init__(replications)
        self._process = process

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        process = self._process
        slots = np.arange(start, start + count)
        offsets = slots - process.start
        burst = (offsets >= 0) & (offsets % process.period == 0)
        if process.num_bursts is not None:
            burst &= (offsets // process.period) < process.num_bursts
        row = np.where(burst, process.burst_size, 0).astype(np.int64)
        return np.broadcast_to(row, (self.replications, count)).copy()


class PoissonArrivalsVector(VectorArrivals):
    def __init__(self, process: PoissonArrivals, replications: int) -> None:
        super().__init__(replications)
        self._rate = process.rate
        self._horizon = process.horizon

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        counts = np.empty((self.replications, count), dtype=np.int64)
        for index, generator in enumerate(streams.adversary_generators):
            counts[index] = generator.poisson(self._rate, count)
        if self._horizon is not None and start + count > self._horizon:
            cutoff = max(0, self._horizon - start)
            counts[:, cutoff:] = 0
        if self._rate == 0.0:
            counts[:] = 0
        return counts


class ScheduledArrivalsVector(VectorArrivals):
    """Piecewise schedule of arrival kernels, stitched along phase edges.

    Each phase owns the kernel of its component; a chunk that spans a
    phase boundary is assembled from per-phase sub-chunks queried at
    *phase-local* slots, mirroring the scalar adapter's local-clock
    semantics.  Chunk geometry is deterministic (the engine's fixed
    ``CHUNK_SLOTS`` grid), so the randomness consumed per phase is a
    deterministic function of the batch seeds.
    """

    def __init__(self, process: ScheduledArrivals, replications: int) -> None:
        super().__init__(replications)
        self._schedule = process.schedule
        self._kernels = [
            make_arrivals_kernel(phase.component, replications)
            for phase in self._schedule.phases
        ]

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        counts = np.zeros((self.replications, count), dtype=np.int64)
        for index, local_start, offset, length in self._schedule.segments(start, count):
            counts[:, offset : offset + length] = self._kernels[index].chunk(
                local_start, length, streams
            )
        return counts


class AdversarialQueueingArrivalsVector(VectorArrivals):
    """(λ, S)-bounded adversarial-queuing schedule, chunked per window.

    ``front`` and ``uniform`` placements are deterministic, so one window
    plan (mirroring the scalar ``_plan_window`` exactly, including the
    ``int(k * stride)`` remainder spreading) broadcasts across rows.
    ``random`` placement draws each window's plan lazily per replication
    from the adversary generators — a different RNG than the scalar
    ``random.Random``, which is within the vector engine's statistical
    contract.  Windows can span chunk boundaries, so drawn plans are cached
    until the chunk grid moves past them.
    """

    def __init__(
        self, process: AdversarialQueueingArrivals, replications: int
    ) -> None:
        super().__init__(replications)
        self._granularity = process.granularity
        self._budget = process.arrivals_per_window
        self._placement = process.placement
        self._horizon = process.horizon
        self._row_plan: np.ndarray | None = None
        self._plans: dict[int, np.ndarray] = {}
        if process.placement != "random":
            self._row_plan = self._deterministic_plan()

    def _deterministic_plan(self) -> np.ndarray:
        plan = np.zeros(self._granularity, dtype=np.int64)
        budget = self._budget
        if budget <= 0:
            return plan
        if self._placement == "front":
            plan[0] = budget
        else:  # uniform
            base, remainder = divmod(budget, self._granularity)
            plan[:] = base
            stride = self._granularity / remainder if remainder else 0.0
            for k in range(remainder):
                plan[int(k * stride)] += 1
        return plan

    def _window_plan(self, window: int, streams: VectorStreams) -> np.ndarray:
        plans = self._plans
        counts = plans.get(window)
        if counts is None:
            counts = np.zeros((self.replications, self._granularity), dtype=np.int64)
            for index, generator in enumerate(streams.adversary_generators):
                hits = generator.integers(0, self._granularity, size=self._budget)
                np.add.at(counts[index], hits, 1)
            plans[window] = counts
        return counts

    def chunk(self, start: int, count: int, streams: VectorStreams) -> np.ndarray:
        counts = np.zeros((self.replications, count), dtype=np.int64)
        if self._budget > 0:
            granularity = self._granularity
            first = start // granularity
            last = (start + count - 1) // granularity
            for window in range(first, last + 1):
                window_start = window * granularity
                low = max(start, window_start)
                high = min(start + count, window_start + granularity)
                if self._row_plan is not None:
                    segment = self._row_plan[low - window_start : high - window_start]
                else:
                    plan = self._window_plan(window, streams)
                    segment = plan[:, low - window_start : high - window_start]
                counts[:, low - start : high - start] = segment
            for stale in [w for w in self._plans if w < first]:
                del self._plans[stale]
        if self._horizon is not None and start + count > self._horizon:
            counts[:, max(0, self._horizon - start) :] = 0
        return counts


# ---------------------------------------------------------------------------
# Jamming kernels
# ---------------------------------------------------------------------------


JammerRows = Sequence[tuple[Jammer, int]]


def _jammer_rows(pairs: JammerRows) -> int:
    return sum(count for _, count in pairs)


def _jam_param(pairs: JammerRows, getter, none_as=None):
    """Promote a per-jammer parameter to a per-row ``(R,)`` array.

    Returns the plain (scalar) value when it is uniform across rows, so the
    single-config kernels keep their scalar early-outs; per-row arrays
    otherwise.  Both layouts produce identical per-row decisions, which is
    what keeps mega-batched jamming bit-identical to per-group runs.
    """
    values = []
    for jammer, _ in pairs:
        value = getter(jammer)
        values.append(none_as if value is None else value)
    if all(value == values[0] for value in values):
        return values[0]
    return np.repeat(
        np.asarray(values), [count for _, count in pairs]
    )


class VectorJammer(abc.ABC):
    """Per-slot jamming decisions for one batch, with budget bookkeeping.

    Built from ``(jammer, rows)`` pairs so a mega-batch can stack
    configurations of one jammer family with different parameters (promoted
    to per-row arrays); the single-pair case is the classic one-config
    batch.
    """

    #: True when :meth:`jam` can never return a jammed slot (lets the
    #: engine skip the jam masks entirely on the common unjammed path).
    never_jams: bool = False

    #: True when the kernel decides after seeing the slot's senders: the
    #: engine calls :meth:`reactive_jam` once the send masks are known.
    reactive: bool = False

    #: True when jam decisions read the pre-injection contention C(t): the
    #: engine calls :meth:`set_contention` whenever a row's contention
    #: changes, before the next :meth:`jam`.
    needs_contention: bool = False

    #: Sentinel for "no budget" rows when budgets are promoted per row.
    _NO_BUDGET = np.iinfo(np.int64).max

    def __init__(self, pairs: JammerRows) -> None:
        replications = _jammer_rows(pairs)
        self.replications = replications
        budget = _jam_param(
            pairs, lambda j: getattr(j, "budget", None), none_as=self._NO_BUDGET
        )
        if not isinstance(budget, np.ndarray) and budget == self._NO_BUDGET:
            budget = None
        self._budget = budget
        self._used = np.zeros(replications, dtype=np.int64)
        self._false = np.zeros(replications, dtype=bool)

    def begin_chunk(
        self,
        start: int,
        count: int,
        streams: VectorStreams,
        running: np.ndarray | None = None,
    ) -> None:
        """Draw whatever randomness the next ``count`` slots need.

        ``running`` masks replications whose execution already ended;
        their draws are skipped (nothing ever reads them, and a row's
        finish time is a function of its own spec and seed, so skipping
        keeps every row's draws its own).
        """

    @abc.abstractmethod
    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        """Jamming decisions for ``slot``; spends the budget.

        ``slot`` is one slot for every row (an int) or per-row slots: an
        ``(R,)`` array, or an ``(L, R)`` block whose column ``r`` lists row
        ``r``'s slots in increasing order.  ``backlog_pre`` is the backlog
        *before* the slot's injections (the state an adaptive jammer sees);
        ``running``, ``(R,)`` or ``(L, R)``, masks the row-slots that take
        no decision at all (ended replications, padding), whatever their
        slot value.  Decisions take the broadcast shape of ``slot`` and
        ``running``; an all-False answer may come back as ``(R,)``.
        """

    def set_contention(self, contention: np.ndarray) -> None:
        """Receive the pre-injection contention per replication (``(R,)``).

        Only called when ``needs_contention``; the values are what a scalar
        adversary's ``SystemView.contention`` would report — the sum of the
        active packets' sending probabilities before this slot's injections.
        """

    def reactive_jam(
        self,
        slot: int | np.ndarray,
        send_rows: np.ndarray,
        send_cols: np.ndarray,
        num_senders: np.ndarray,
        backlog_pre: np.ndarray,
        running: np.ndarray,
        arrival_slot: np.ndarray,
        jammed: np.ndarray,
    ) -> np.ndarray:
        """Reactive decisions after the slot's senders are known.

        ``slot`` is one slot for every row or each row's own (``(R,)``).
        ``send_rows`` / ``send_cols`` index the slot's senders (row, packet
        id; winners not yet removed), ``num_senders`` is their per-row
        count, and ``jammed`` the adaptive decisions already made; the
        return value replaces ``jammed``.  Only called when ``reactive``.
        """
        return jammed

    def jams_used(self) -> np.ndarray:
        return self._used.copy()

    def _apply_budget(self, decisions: np.ndarray) -> np.ndarray:
        if decisions.ndim == 2:
            # A block of slots per row: the k-th jam of a row down axis 0 is
            # granted exactly when k more jams still fit its budget.
            if self._budget is not None:
                decisions &= decisions.cumsum(axis=0) + self._used <= self._budget
            self._used += decisions.sum(axis=0)
            return decisions
        if self._budget is not None:
            decisions &= self._used < self._budget
        self._used += decisions
        return decisions


class NoJammingVector(VectorJammer):
    never_jams = True

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        return self._false


class PeriodicJammingVector(VectorJammer):
    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._period = _jam_param(pairs, lambda j: j.period)
        self._offset = _jam_param(pairs, lambda j: j.offset)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        if isinstance(slot, int) and not isinstance(
            self._period, np.ndarray
        ) and not isinstance(self._offset, np.ndarray):
            if slot < self._offset or (slot - self._offset) % self._period != 0:
                return self._false
            return self._apply_budget(running.copy())
        offset = slot - self._offset
        on_slot = (offset >= 0) & (offset % self._period == 0)
        if not on_slot.any():
            return self._false
        return self._apply_budget(running & on_slot)


class BurstJammingVector(VectorJammer):
    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        # period=None (one-shot burst) promotes to 0 in the per-row layout.
        self._start = _jam_param(pairs, lambda j: j.start)
        self._length = _jam_param(pairs, lambda j: j.length)
        self._period = _jam_param(pairs, lambda j: j.period, none_as=0)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        uniform = isinstance(slot, int) and not any(
            isinstance(param, np.ndarray)
            for param in (self._start, self._length, self._period)
        )
        if uniform:
            if slot < self._start:
                return self._false
            offset = slot - self._start
            in_burst = (
                (offset % self._period) < self._length
                if self._period
                else offset < self._length
            )
            if not in_burst:
                return self._false
            return self._apply_budget(running.copy())
        offset = slot - self._start
        period = np.asarray(self._period)
        repeating = (offset % np.where(period > 0, period, 1)) < self._length
        one_shot = offset < self._length
        in_burst = (offset >= 0) & np.where(period > 0, repeating, one_shot)
        if not in_burst.any():
            return self._false
        return self._apply_budget(running & in_burst)


class _PreDrawnJammer(VectorJammer):
    """A jammer whose per-slot coins are drawn a chunk ahead, per row.

    Uniforms come from the per-replication adversary generators (a different
    stream than the scalar ``random.Random`` — the statistical contract).
    """

    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._rows = np.arange(self.replications)
        self._chunk_start = 0
        self._uniforms: np.ndarray | None = None

    def begin_chunk(
        self,
        start: int,
        count: int,
        streams: VectorStreams,
        running: np.ndarray | None = None,
    ) -> None:
        if self._uniforms is None or self._uniforms.shape[1] != count:
            self._uniforms = np.empty((self.replications, count), dtype=np.float64)
        for index, generator in enumerate(streams.adversary_generators):
            if running is None or running[index]:
                self._uniforms[index] = generator.random(count)
        self._chunk_start = start

    def _draws(self, slot) -> np.ndarray:
        """Each row's uniform at ``slot``; masked slots off the chunk read a
        clipped neighbour."""
        uniforms = self._uniforms
        assert uniforms is not None, "begin_chunk must precede jam"
        if isinstance(slot, int):
            return uniforms[:, slot - self._chunk_start]
        columns = np.clip(slot - self._chunk_start, 0, uniforms.shape[1] - 1)
        return uniforms[self._rows, columns]


class BernoulliJammingVector(_PreDrawnJammer):
    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._probability = _jam_param(pairs, lambda j: j.probability)
        self._only_active = _jam_param(pairs, lambda j: j.only_active)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        decisions = (self._draws(slot) < self._probability) & running
        if isinstance(self._only_active, np.ndarray):
            decisions &= (backlog_pre > 0) | ~self._only_active
        elif self._only_active:
            decisions &= backlog_pre > 0
        return self._apply_budget(decisions)


class BudgetedRandomJammingVector(_PreDrawnJammer):
    """Spend a jamming budget uniformly at random before ``horizon``.

    Like :class:`BernoulliJammingVector`, uniforms are pre-drawn per chunk;
    the jam probability per row is ``budget / horizon``, gated on the
    horizon and the budget counter.
    """

    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._horizon = _jam_param(pairs, lambda j: j.horizon)
        self._probability = _jam_param(pairs, lambda j: (j.budget or 0) / j.horizon)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        per_slot = isinstance(slot, int) and not isinstance(self._horizon, np.ndarray)
        if per_slot and slot >= self._horizon:
            return self._false
        decisions = (self._draws(slot) < self._probability) & running
        if not per_slot:
            decisions &= slot < self._horizon
        return self._apply_budget(decisions)


class AdaptiveContentionJammerVector(VectorJammer):
    """Adaptive strategy: jam rows whose contention is in a target regime.

    The engine hands the kernel each row's pre-injection contention
    (:meth:`set_contention`) — the same C(t) the scalar jammer reads from
    its ``SystemView`` — and the decision is an elementwise regime test
    gated on a non-empty backlog and the budget.
    """

    needs_contention = True

    _REGIME_CODES = {"low": 0, "good": 1, "high": 2, "any": 3}

    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._c_low = _jam_param(pairs, lambda j: j.c_low)
        self._c_high = _jam_param(pairs, lambda j: j.c_high)
        regimes = [jammer.target_regime for jammer, _ in pairs]
        if all(regime == regimes[0] for regime in regimes):
            self._regime: str | np.ndarray = regimes[0]
        else:
            self._regime = np.repeat(
                np.asarray([self._REGIME_CODES[regime] for regime in regimes]),
                [count for _, count in pairs],
            )
        self._contention: np.ndarray | None = None

    def set_contention(self, contention: np.ndarray) -> None:
        self._contention = contention

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        contention = self._contention
        assert contention is not None, "set_contention must precede jam"
        regime = self._regime
        if isinstance(regime, str):
            if regime == "low":
                in_target = contention < self._c_low
            elif regime == "good":
                in_target = (self._c_low <= contention) & (contention <= self._c_high)
            elif regime == "high":
                in_target = contention > self._c_high
            else:  # any
                in_target = None
        else:
            in_target = np.choose(
                regime,
                [
                    contention < self._c_low,
                    (self._c_low <= contention) & (contention <= self._c_high),
                    contention > self._c_high,
                    np.ones(self.replications, dtype=bool),
                ],
            )
        decisions = running & (backlog_pre > 0)
        if in_target is not None:
            decisions &= in_target
        return self._apply_budget(decisions)


class ReactiveTargetedJammerVector(VectorJammer):
    """Reactive strategy: jam whenever the targeted packet transmits.

    Both engines apply one rule: jam when the target sends and arrived in
    an earlier slot.  The scalar jammer tests ``target_index <
    view.arrivals_so_far``; because packet ids are arrival-ordered column
    indices here, the kernel tests a sender whose column is the target
    index with ``arrival_slot < slot``.  A target that sends in its own
    arrival slot goes unjammed there on both engines.
    """

    reactive = True

    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._target = _jam_param(pairs, lambda j: j.target_index)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        return self._false

    def reactive_jam(
        self,
        slot: int | np.ndarray,
        send_rows: np.ndarray,
        send_cols: np.ndarray,
        num_senders: np.ndarray,
        backlog_pre: np.ndarray,
        running: np.ndarray,
        arrival_slot: np.ndarray,
        jammed: np.ndarray,
    ) -> np.ndarray:
        target = self._target
        if isinstance(target, np.ndarray):
            target = target[send_rows]
        hit = send_cols == target
        rows = send_rows[hit]
        if not isinstance(slot, int):
            slot = slot[rows]
        known = arrival_slot[rows, send_cols[hit]] < slot
        targeted = np.zeros(self.replications, dtype=bool)
        targeted[rows[known]] = True
        decisions = self._apply_budget(targeted & running & ~jammed)
        return jammed | decisions


class ReactiveSuccessJammerVector(VectorJammer):
    """Reactive strategy: jam every slot that would otherwise be a success."""

    reactive = True

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        return self._false

    def reactive_jam(
        self,
        slot: int | np.ndarray,
        send_rows: np.ndarray,
        send_cols: np.ndarray,
        num_senders: np.ndarray,
        backlog_pre: np.ndarray,
        running: np.ndarray,
        arrival_slot: np.ndarray,
        jammed: np.ndarray,
    ) -> np.ndarray:
        decisions = (num_senders == 1) & running & ~jammed
        decisions = self._apply_budget(decisions)
        return jammed | decisions


class ScheduledJammingVector(VectorJammer):
    """Piecewise schedule of jamming kernels with per-phase budgets.

    Per-slot decisions dispatch to the active phase's kernel at the
    phase-local slot; randomness for chunks that span a phase boundary is
    pre-drawn per phase through :meth:`begin_chunk`, so each phase kernel
    sees exactly the (local) slot range it will be asked about.  Budget
    bookkeeping lives in the phase kernels (budgets are per phase, like
    the scalar adapter); ``jams_used`` sums them.

    Schedules never promote parameters per row (mega-batches only merge
    groups with *identical* schedules), so the kernel is built from the
    first pair's schedule.
    """

    def __init__(self, pairs: JammerRows) -> None:
        super().__init__(pairs)
        self._schedule = pairs[0][0].schedule
        self._kernels = [
            make_jammer_kernel(phase.component, self.replications)
            for phase in self._schedule.phases
        ]
        self.never_jams = all(kernel.never_jams for kernel in self._kernels)
        self.needs_contention = any(kernel.needs_contention for kernel in self._kernels)
        self._bounds = [
            (self._schedule.start_of(index), self._schedule.end_of(index))
            for index in range(len(self._kernels))
        ]

    def begin_chunk(
        self,
        start: int,
        count: int,
        streams: VectorStreams,
        running: np.ndarray | None = None,
    ) -> None:
        for index, local_start, _offset, length in self._schedule.segments(start, count):
            self._kernels[index].begin_chunk(local_start, length, streams, running)

    def set_contention(self, contention: np.ndarray) -> None:
        for kernel in self._kernels:
            kernel.set_contention(contention)

    def jam(
        self, slot: int | np.ndarray, backlog_pre: np.ndarray, running: np.ndarray
    ) -> np.ndarray:
        if isinstance(slot, int):
            located = self._schedule.phase_at(slot)
            if located is None:
                return self._false
            index, local_slot = located
            return self._kernels[index].jam(local_slot, backlog_pre, running)
        # Per-row slots: each phase decides the row-slots inside it.
        decisions = np.zeros(np.broadcast(slot, running).shape, dtype=bool)
        for kernel, (start, end) in zip(self._kernels, self._bounds):
            inside = running & (slot >= start)
            if end is not None:
                inside &= slot < end
            if inside.any():
                decisions |= kernel.jam(slot - start, backlog_pre, inside)
        return decisions

    def jams_used(self) -> np.ndarray:
        used = np.zeros(self.replications, dtype=np.int64)
        for kernel in self._kernels:
            used += kernel.jams_used()
        return used


# ---------------------------------------------------------------------------
# The kernel tables and their factories
# ---------------------------------------------------------------------------


#: Exact arrival-process type -> its schedule kernel, built from
#: ``(process, replications)``.  With :data:`JAMMER_KERNELS` this is the
#: registry of vectorizable adversary components: the factories below and
#: :mod:`repro.sim.vector.support` read the same tables, by exact type, so a
#: subclass never inherits a kernel that may no longer describe it.
ARRIVAL_KERNELS: dict[type, type[VectorArrivals]] = {
    NoArrivals: NoArrivalsVector,
    BatchArrivals: BatchArrivalsVector,
    PoissonArrivals: PoissonArrivalsVector,
    PeriodicBurstArrivals: PeriodicBurstArrivalsVector,
    AdversarialQueueingArrivals: AdversarialQueueingArrivalsVector,
    ScheduledArrivals: ScheduledArrivalsVector,
}

#: Exact jammer type -> its jamming kernel, built from ``(jammer, rows)``
#: pairs.
JAMMER_KERNELS: dict[type, type[VectorJammer]] = {
    NoJamming: NoJammingVector,
    BernoulliJamming: BernoulliJammingVector,
    PeriodicJamming: PeriodicJammingVector,
    BurstJamming: BurstJammingVector,
    BudgetedRandomJamming: BudgetedRandomJammingVector,
    # Feedback jammers: served by the engine's feedback loop (each
    # row's contention and its resolving slot's senders).
    AdaptiveContentionJammer: AdaptiveContentionJammerVector,
    ReactiveTargetedJammer: ReactiveTargetedJammerVector,
    ReactiveSuccessJammer: ReactiveSuccessJammerVector,
    ScheduledJamming: ScheduledJammingVector,
}


def make_arrivals_kernel(process: Any, replications: int) -> VectorArrivals:
    kind = type(process)
    if kind not in ARRIVAL_KERNELS:
        raise TypeError(f"no vector schedule for arrival process {kind.__name__}")
    return ARRIVAL_KERNELS[kind](process, replications)


def make_row_jammer_kernel(pairs: JammerRows) -> VectorJammer:
    """Build one jamming kernel covering every ``(jammer, rows)`` pair.

    All pairs must share one exact jammer type; parameters are promoted to
    per-row arrays.
    """
    if not pairs:
        raise ValueError("at least one jammer row block is required")
    kinds = {type(jammer) for jammer, _ in pairs}
    if len(kinds) > 1:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"cannot stack different jammer types: {names}")
    (kind,) = kinds
    if kind not in JAMMER_KERNELS:
        raise TypeError(f"no vector kernel for jammer {kind.__name__}")
    return JAMMER_KERNELS[kind](pairs)


def make_jammer_kernel(jammer: Jammer, replications: int) -> VectorJammer:
    return make_row_jammer_kernel([(jammer, replications)])
