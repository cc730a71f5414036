"""The lockstep batch simulation engine.

:class:`VectorSimulator` runs *every replication of one configuration at
once*: packet protocol state, send decisions, channel resolution, ternary
feedback, and metric accumulation are all held as ``(replications ×
packets)`` numpy arrays, and one pass over the slot loop advances the whole
batch.  The per-slot cost is a fixed number of array operations, so the
interpreter overhead that dominates the scalar engine is paid once per slot
instead of once per packet per replication.

Two decision paths share the loop:

* **access-driven kernels** (LOW-SENSING, decoupled LSB, BEB, polynomial,
  fixed-probability/ALOHA) change a packet's state only when it accesses
  the channel, so every packet holds its next-access slot, a
  Geometric(access probability) gap ahead (:class:`_AccessCalendar`).  A
  slot touches only the packets due: one coin each splits send from listen
  (listening kernels), the ternary feedback of their replication's channel
  updates their state, and a second coin draws their next gap.  Lockstep
  stretches in which no running replication has a due access or an arrival
  change no state, so they are recorded in bulk, up to the next due
  access and never across a ``CHUNK_SLOTS`` boundary, with each slot's jam
  decision taken from the jammer kernel exactly as stepping would.  Cost
  follows channel accesses, not packets × slots;
* **dense kernels** (Sawtooth, full-sensing MW) advance state every slot —
  Sawtooth's clock ticks while a packet sleeps, and MW listens every slot —
  so every active packet takes one coin a slot, scattered into a coin
  matrix that the kernel compares against its thresholds, and the kernel
  consumes the per-replication ternary feedback arrays: the ``(R,)`` idle /
  success / noise row masks derived from the sender counts and the jamming
  decisions, i.e. exactly what a scalar packet's ``FeedbackReport`` would
  say about its replication's channel.

Both paths hand the rest of the slot its senders as (row, packet) index
arrays, which channel resolution, the reactive jammer kernels, and the
trace read.  Per-packet listen counters feed the energy metrics.

A replication consumes its packet stream only through its own events, in
packet-id order within a slot (:class:`~repro.sim.vector.rng.RowCoins`),
and its adversary stream per fixed ``CHUNK_SLOTS`` chunk while it runs, so
every result is a function of (spec, seed) alone: bit-identical run alone,
in its group, in a resized group, or inside a mega-batch, whatever the
batch's packet capacity, and however many of its idle slots the batch
skipped.

The engine also runs **mega-batches**: :meth:`VectorSimulator.from_specs`
takes the specs of several configurations that share one batch key (one
protocol/arrival/jammer kernel family and one set of engine options; see
:func:`~repro.sim.vector.support.placement`) and stacks them into a
single ragged lockstep batch, parameters promoted to per-row arrays.  Each
configuration keeps its own *segment* — its own arrival schedule — and,
like any row, consumes exactly the random streams it would consume in a
standalone batch, so mega-batched results are **bit-identical** to
per-group vector execution (enforced by tests).  Only the per-slot Python
dispatch is shared, which is where the speedup lives.

The engine reproduces the scalar engine's slot semantics exactly (same
decision order, same channel rules, same metric definitions, same
stop-when-drained condition) but draws its randomness from per-replication
Philox streams instead of per-packet ``random.Random`` streams.  Vector
results therefore agree with scalar results *statistically* — same Markov
chain, different coins — while repeated vector runs of the same batch are
bit-identical (see ``repro.analysis.equivalence`` for the checking
harness).

Outcome codes used internally: 0 empty, 1 success, 2 collision, 3 jammed.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.telemetry import current as current_telemetry

from repro.adversary.arrivals import ArrivalProcess
from repro.adversary.jamming import Jammer
from repro.channel.feedback import SlotOutcome
from repro.channel.trace import ExecutionTrace, SlotRecord
from repro.core.potential import (
    PotentialCoefficients,
    PotentialSample,
    PotentialTracker,
)
from repro.metrics.collectors import MetricsCollector
from repro.protocols.base import BackoffProtocol
from repro.sim.results import PacketRecord, SimulationResult
from repro.sim.vector.adversaries import (
    CHUNK_SLOTS,
    make_arrivals_kernel,
    make_row_jammer_kernel,
)
from repro.sim.vector.protocols import _flat, make_protocol_row_kernel
from repro.sim.vector.rng import RowCoins, VectorStreams, geometric_gaps
from repro.sim.vector.support import batch_difference, lockstep_components, placement

#: Outcome-code → SlotOutcome lookup for trace materialisation.
_OUTCOMES = (
    SlotOutcome.EMPTY,
    SlotOutcome.SUCCESS,
    SlotOutcome.COLLISION,
    SlotOutcome.JAMMED,
)

#: Next-access slot of a cell with no access ahead: not yet arrived,
#: departed, or past the run's horizon.
_NEVER = np.iinfo(np.int64).max

#: The trace entry of a slot without senders (or listeners).
_NO_EVENTS = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


def _contention(kernel: Any, active: np.ndarray) -> np.ndarray:
    """C(t) per replication: the active packets' summed send probabilities.

    The cumulative sum reproduces the scalar engine's sequential
    ascending-id additions bitwise (inactive cells add +0.0, a float no-op).
    """
    return np.where(active, kernel.sending_probabilities(), 0.0).cumsum(axis=1)[:, -1]


def _exhaustion_slot(arrivals: Any, max_slots: int) -> int:
    """First slot from which an oblivious schedule is exhausted in every row.

    ``exhausted`` is pure and monotone in the slot, so a binary search over
    the run finds it; ``max_slots + 1`` when the schedule outlasts the run.
    """
    if not arrivals.exhausted(max_slots):
        return max_slots + 1
    low, high = 0, max_slots
    while low < high:
        middle = (low + high) // 2
        if arrivals.exhausted(middle):
            high = middle
        else:
            low = middle + 1
    return low


def _potential_terms(
    kernel: Any,
    active: np.ndarray,
    backlog: np.ndarray,
    coeffs: PotentialCoefficients,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(H, L, Σ1/w, Φ) per replication from post-slot windows and backlog.

    Scalar step 5: Φ is sampled after feedback updates and the winner's
    departure.  Windowless kernels yield zero rows, as on the scalar engine.
    The per-window terms go through ``math.log``, as in
    :class:`PotentialTracker`: ``np.log`` can differ from it by an ulp on
    rare inputs, and Φ must match the scalar engine bit for bit.
    """
    windows = kernel.window_matrix()
    if windows is None:
        zero = np.zeros(backlog.shape[0])
        return zero, zero, zero, zero
    inverse_log = np.zeros_like(windows)
    values = windows[active].tolist()
    if values:
        if min(values) <= 1.0:
            # Same contract as the scalar PotentialSample.h_term.
            raise ValueError("potential tracking requires windows > 1")
        inverse_log[active] = [1.0 / math.log(value) for value in values]
    h_row = inverse_log.cumsum(axis=1)[:, -1]
    inverse_sum = np.where(active, 1.0 / windows, 0.0).cumsum(axis=1)[:, -1]
    occupied = backlog > 0
    l_row = np.zeros(backlog.shape[0])
    if occupied.any():
        peak = np.where(active, windows, -np.inf).max(axis=1)
        l_row[occupied] = [
            value / math.log(value) ** 2 for value in peak[occupied].tolist()
        ]
    phi = np.where(
        occupied,
        coeffs.alpha1 * backlog + coeffs.alpha2 * h_row + coeffs.alpha3 * l_row,
        0.0,
    )
    return h_row, l_row, inverse_sum, phi


def _sample_dynamics_gauges(
    j: int,
    kernel: Any,
    active: np.ndarray,
    listens: np.ndarray | None,
    dyn_prob_sum: np.ndarray,
    dyn_window_sum: np.ndarray,
    dyn_listens: np.ndarray,
    dyn_has_windows: bool,
) -> None:
    """Sample the live dynamics gauges into global-boundary row ``j``.

    Post-step state only; the cumulative sums reproduce the scalar
    engine's sequential ascending-id float additions bitwise (inactive
    cells add +0.0, a float no-op).  Rows that drained earlier read back
    their frozen end-of-run values — empty active mask, listens no longer
    growing — which is exactly what the scalar accumulator recorded for
    them.
    """
    dyn_prob_sum[j] = _contention(kernel, active)
    if dyn_has_windows:
        windows = kernel.window_matrix()
        dyn_window_sum[j] = (
            np.where(active, windows, 0.0).cumsum(axis=1)[:, -1]
        )
    if listens is not None:
        dyn_listens[j] = listens.sum(axis=1)


class _SlotRecorder:
    """Growable ``(slots × replications)`` per-slot observation buffers.

    The base buffers feed metric finalisation; the optional trace buffers
    (per-slot winner column and pre-injection contention) and potential
    buffers (H, L, Σ1/w, Φ) are only allocated when the batch collects the
    corresponding vectorized outputs.
    """

    _BASE_FIELDS = (
        ("outcome", np.int8, 0),
        ("jammed", bool, False),
        ("arrivals", np.int32, 0),
        ("active_before", np.int32, 0),
        ("active_after", np.int32, 0),
        ("num_senders", np.int32, 0),
    )
    _TRACE_FIELDS = (
        ("winner", np.int64, -1),
        ("contention", np.float64, 0.0),
    )
    _POTENTIAL_FIELDS = (
        ("h_term", np.float64, 0.0),
        ("l_term", np.float64, 0.0),
        ("inverse_window_sum", np.float64, 0.0),
        ("potential", np.float64, 0.0),
    )

    def __init__(
        self,
        replications: int,
        initial_slots: int = 1024,
        *,
        trace: bool = False,
        potential: bool = False,
    ) -> None:
        self._replications = replications
        self._capacity = max(1, initial_slots)
        self._fields = list(self._BASE_FIELDS)
        if trace:
            self._fields += list(self._TRACE_FIELDS)
        if potential:
            self._fields += list(self._POTENTIAL_FIELDS)
        for name, dtype, fill in self._fields:
            setattr(self, name, self._alloc(self._capacity, dtype, fill))

    def _alloc(self, capacity: int, dtype, fill) -> np.ndarray:
        buffer = np.full((capacity, self._replications), fill, dtype=dtype)
        return buffer

    def _grow(self, needed: int) -> None:
        new_capacity = max(needed, self._capacity * 2)
        for name, dtype, fill in self._fields:
            old = getattr(self, name)
            grown = self._alloc(new_capacity, dtype, fill)
            grown[: self._capacity] = old
            setattr(self, name, grown)
        self._capacity = new_capacity

    def _ensure(self, stop: int) -> None:
        if stop > self._capacity:
            self._grow(stop)

    def record(
        self,
        slot: int,
        outcome: np.ndarray,
        jammed: np.ndarray,
        arrivals: np.ndarray,
        active_before: np.ndarray,
        active_after: np.ndarray,
        num_senders: np.ndarray,
    ) -> None:
        self._ensure(slot + 1)
        self.outcome[slot] = outcome
        self.jammed[slot] = jammed
        self.arrivals[slot] = arrivals
        self.active_before[slot] = active_before
        self.active_after[slot] = active_after
        self.num_senders[slot] = num_senders

    def record_idle(
        self, start: int, stop: int, jammed: np.ndarray | None, backlog: np.ndarray
    ) -> None:
        """Slots ``start .. stop-1``, in which no row accessed or injected.

        ``jammed`` is the ``(stop - start, R)`` jam decisions, ``None`` for
        a jammer that never jams.
        """
        self._ensure(stop)
        span = slice(start, stop)
        if jammed is None:
            self.outcome[span] = 0
            self.jammed[span] = False
        else:
            self.outcome[span] = np.where(jammed, 3, 0)
            self.jammed[span] = jammed
        self.arrivals[span] = 0
        self.active_before[span] = backlog
        self.active_after[span] = backlog
        self.num_senders[span] = 0

    def record_trace(
        self, slot: int | slice, winner: np.ndarray | int, contention: np.ndarray
    ) -> None:
        """Trace rows; a slice of idle slots takes the values broadcast."""
        self.winner[slot] = winner
        self.contention[slot] = contention

    def record_potential(
        self,
        slot: int | slice,
        h_term: np.ndarray,
        l_term: np.ndarray,
        inverse_window_sum: np.ndarray,
        potential: np.ndarray,
    ) -> None:
        self.h_term[slot] = h_term
        self.l_term[slot] = l_term
        self.inverse_window_sum[slot] = inverse_window_sum
        self.potential[slot] = potential


#: A batch's engine options: max_slots, stop_when_drained, collect_trace,
#: collect_potential, potential coefficients and dynamics window.
_Options = tuple[int, bool, bool, bool, PotentialCoefficients, int]


class _GroupConfig:
    """One configuration replicated over seeds: a (mega-)batch building block."""

    __slots__ = ("protocol", "arrival_process", "jammer", "seeds", "descriptions")

    def __init__(
        self,
        protocol: BackoffProtocol,
        arrival_process: ArrivalProcess,
        jammer: Jammer,
        seeds: list[int],
        descriptions: list[dict[str, Any]],
    ) -> None:
        self.protocol = protocol
        self.arrival_process = arrival_process
        self.jammer = jammer
        self.seeds = seeds
        self.descriptions = descriptions


class _AccessCalendar:
    """Next-access slots and per-row coins of an access-driven kernel.

    A packet of an access-driven kernel changes state only when it accesses
    the channel, so between two accesses it repeats one trial per slot at a
    fixed access probability ``p``: the slots to its next access are
    Geometric(p), drawn once by inversion.  ``next_access`` holds each
    cell's next access slot, and a slot touches only the packets due.

    Coins come from each replication's own packet stream, consumed only by
    that row's events in packet-id order: one per arriving packet for its
    first gap (a first access may fall in the arrival slot), then per
    accessor a send-vs-listen coin (listening kernels only) and the coin of
    its next gap, drawn before the channel resolves — a winner's is unused.
    """

    def __init__(
        self,
        kernel: Any,
        coins: RowCoins,
        replications: int,
        capacity: int,
        horizon: int,
    ) -> None:
        self.kernel = kernel
        self.replications = replications
        self.horizon = horizon
        self.coins = coins
        self.next_access = np.full((replications, capacity), _NEVER, dtype=np.int64)

    def grow(self, capacity: int) -> None:
        grown = np.full((self.replications, capacity), _NEVER, dtype=np.int64)
        grown[:, : self.next_access.shape[1]] = self.next_access
        self.next_access = grown

    def arrive(
        self, cells: np.ndarray, rows: np.ndarray, counts: np.ndarray, slot: int
    ) -> None:
        """Schedule the first access of packets injected at ``slot``."""
        # A first gap counts from ``slot - 1``: the capped gap is one slot
        # longer so that at slot 0 it still lands past the run.
        gaps = geometric_gaps(
            self.coins.take(rows, counts),
            self.kernel.access_probability(cells, rows),
            self.horizon + 1,
        )
        _flat(self.next_access)[cells] = gaps + (slot - 1)

    def due(self, slot: int) -> np.ndarray:
        """Cells accessing at ``slot``, row by row in packet-id order."""
        return np.flatnonzero(self.next_access == slot)

    def next_due(self) -> int:
        return int(self.next_access.min())

    def decide(
        self, cells: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sent, gap coins)`` of the accessors at ``cells``."""
        counts = np.bincount(rows, minlength=self.replications)
        share = self.kernel.send_share(cells, rows)
        if share is None:
            return np.ones(cells.size, dtype=bool), self.coins.take(rows, counts)
        pairs = self.coins.take(np.repeat(rows, 2), 2 * counts).reshape(-1, 2)
        return pairs[:, 0] < share, pairs[:, 1]

    def settle(
        self,
        cells: np.ndarray,
        rows: np.ndarray,
        sent: np.ndarray,
        gap_coins: np.ndarray,
        won: np.ndarray,
        empty: np.ndarray,
        noise: np.ndarray,
        slot: int,
    ) -> None:
        """Feedback and next gaps for the accessors; winners leave."""
        next_access = _flat(self.next_access)
        if won.any():
            next_access[cells[won]] = _NEVER
            stay = ~won
            cells, rows, sent, gap_coins, empty, noise = (
                values[stay] for values in (cells, rows, sent, gap_coins, empty, noise)
            )
        self.kernel.on_access(cells, rows, sent, empty, noise)
        gaps = geometric_gaps(
            gap_coins, self.kernel.access_probability(cells, rows), self.horizon
        )
        next_access[cells] = gaps + slot


class _Segment:
    """One group's arrival schedule inside a (mega-)batch, over its rows."""

    __slots__ = ("rows", "streams", "arrivals", "exhausted", "exhaust_slot", "live")

    def __init__(self, rows: slice, streams: Any, arrivals: Any, max_slots: int) -> None:
        self.rows = rows
        self.streams = streams
        self.arrivals = arrivals
        self.exhausted = False
        # Coupled schedules exhaust row by row and are asked slot by slot;
        # an oblivious one exhausts at one slot in every row, found once.
        self.exhaust_slot = (
            None if arrivals.coupled else _exhaustion_slot(arrivals, max_slots)
        )
        self.live = True


class VectorSimulator:
    """Runs a batch of replications in lockstep.

    Build a batch with :meth:`from_specs`, from
    :class:`~repro.experiments.plan.RunSpec` items of one or more
    configurations that share a batch key.  The specs' protocol and
    adversary instances are read for their parameters only and never
    mutated; a batch's output is a deterministic function of its specs.
    """

    def __init__(
        self, groups: list[_GroupConfig], options: _Options, order: list[int]
    ) -> None:
        # Internal: from_specs validates what reaches here.  ``order`` maps
        # each row to the position of its spec in the input.
        self._groups = groups
        self._order = order
        (
            self._max_slots,
            self._stop_when_drained,
            self._collect_trace,
            self._collect_potential,
            self._potential_coefficients,
            self._dynamics_window,
        ) = options

    # -- Construction ---------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[Any]) -> "VectorSimulator":
        """Build one lockstep batch from specs, in any order.

        Specs are grouped by their group key (everything but the seed) in
        first-seen order, and every spec must share the first one's batch
        key (:func:`~repro.sim.vector.support.placement`): the protocol
        class, the arrival and jammer classes with their schedules, and the
        engine options.  Parameters may differ between groups; the kernels
        promote them to per-row arrays.  :meth:`run` returns results in
        input order, each bit-identical to running its group alone.
        """
        if not specs:
            raise ValueError("at least one spec is required")
        placements = [placement(spec) for spec in specs]
        first = placements[0]
        members: dict[Any, list[int]] = {}
        for index, place in enumerate(placements):
            if place.reason is not None:
                raise ValueError(f"configuration cannot vectorize: {place.reason}")
            if place.batch != first.batch:
                raise ValueError(
                    "specs of one vector batch must share a batch key; got "
                    + batch_difference(first, place)
                )
            members.setdefault(place.group, []).append(index)
        groups = []
        for indices in members.values():
            configs = [specs[index].build_config() for index in indices]
            config = configs[0]
            arrival_process, jammer = lockstep_components(config.adversary)
            groups.append(
                _GroupConfig(
                    config.protocol,
                    arrival_process,
                    jammer,
                    [built.seed for built in configs],
                    [built.describe() for built in configs],
                )
            )
        # One batch key means one set of engine options.
        options = (
            config.max_slots,
            config.stop_when_drained,
            config.collect_trace,
            config.collect_potential,
            config.potential_coefficients,
            config.dynamics_window,
        )
        order = [index for indices in members.values() for index in indices]
        return cls(groups, options, order)

    # -- Introspection --------------------------------------------------------

    @property
    def num_groups(self) -> int:
        """How many configurations this batch stacks (1 unless mega-batched)."""
        return len(self._groups)

    @property
    def _seeds(self) -> list[int]:
        return [seed for group in self._groups for seed in group.seeds]

    # -- Execution -----------------------------------------------------------

    def run(self) -> list[SimulationResult]:
        """Simulate every replication and return results in input order.

        The lockstep loop (:meth:`_simulate`) and result materialisation
        (:meth:`_finalize`) are timed as separate telemetry phases when a
        session is active, and the hot-loop counters (kernel invocations —
        stepped lockstep rounds —, idle slots skipped, channel accesses,
        slots simulated, feedback iterations, trace/potential
        materialisations) are all derived from post-loop state — nothing
        is sampled inside the per-slot path.
        """
        tele = current_telemetry()
        if not tele.enabled:
            finalize_args, _ = self._simulate()
            return self._finalize(*finalize_args)
        replications = len(self._seeds)
        with tele.span(
            "simulate",
            kind="phase",
            backend="vector",
            replications=replications,
            groups=self.num_groups,
        ):
            finalize_args, stats = self._simulate()
        with tele.span(
            "finalize", kind="phase", backend="vector", replications=replications
        ):
            results = self._finalize(*finalize_args)
        tele.counter("replications", replications, backend="vector")
        for name, value in stats.items():
            if value:
                tele.counter(name, value, backend="vector")
        return results

    def _simulate(self):
        """Run the lockstep loop; return (finalize args, post-loop stats)."""
        groups = self._groups
        max_slots = self._max_slots
        stop_when_drained = self._stop_when_drained
        seeds = self._seeds
        replications = len(seeds)
        streams = VectorStreams(seeds)

        segments: list[_Segment] = []
        # The packet columns: enough for every arrival a bounded schedule
        # can make, grown by doubling otherwise.  No result depends on it.
        capacity = 1
        start = 0
        for group in groups:
            stop = start + len(group.seeds)
            arrivals = make_arrivals_kernel(group.arrival_process, len(group.seeds))
            bound = arrivals.capacity_bound()
            capacity = max(capacity, bound if bound is not None else 64)
            segments.append(
                _Segment(slice(start, stop), streams.slice(start, stop), arrivals, max_slots)
            )
            start = stop
        multi = len(segments) > 1

        kernel = make_protocol_row_kernel(
            [(group.protocol, len(group.seeds)) for group in groups], capacity
        )
        jammer = make_row_jammer_kernel(
            [(group.jammer, len(group.seeds)) for group in groups]
        )
        packet_coins = RowCoins(streams.packet_generators)
        calendar: _AccessCalendar | None = None
        if kernel.access_driven:
            calendar = _AccessCalendar(
                kernel, packet_coins, replications, capacity, max_slots
            )
        track_listens = kernel.listens
        reactive = jammer.reactive
        needs_contention = jammer.needs_contention
        collect_trace = self._collect_trace
        collect_potential = self._collect_potential
        # The lockstep feedback loop: pre-injection contention is computed
        # when an adaptive jammer (or the trace) consumes it, mirroring the
        # scalar engine's _track_contention gating.
        want_contention = needs_contention or collect_trace
        # A backlog-coupled group runs alone: its batch key is its group key.
        coupled_arrivals = segments[0].arrivals if segments[0].arrivals.coupled else None
        # Idle stretches are skipped where no state can change unseen: an
        # access-driven kernel, with every arrival known a chunk ahead.
        skip_idle = calendar is not None and coupled_arrivals is None

        active = np.zeros((replications, capacity), dtype=bool)
        arrival_slot = np.full((replications, capacity), -1, dtype=np.int64)
        departure_slot = np.full((replications, capacity), -1, dtype=np.int64)
        sends = np.zeros((replications, capacity), dtype=np.int64)
        listens = np.zeros((replications, capacity), dtype=np.int64) if track_listens else None

        injected = np.zeros(replications, dtype=np.int64)
        backlog = np.zeros(replications, dtype=np.int64)
        running = np.ones(replications, dtype=bool)
        num_slots = np.full(replications, max_slots, dtype=np.int64)
        recorder = _SlotRecorder(
            replications, trace=collect_trace, potential=collect_potential
        )

        # Vectorized trace output: per-slot sender/listener index pairs
        # (materialised into SlotRecords at finalisation).
        trace_senders: list[tuple[np.ndarray, np.ndarray]] = []
        trace_listeners: list[tuple[np.ndarray, np.ndarray]] = []
        # Vectorized potential accumulator state.
        has_windows = False
        if collect_potential:
            coeffs = self._potential_coefficients
            has_windows = kernel.window_matrix() is not None

        # Windowed dynamics gauge buffers: one row per global window
        # boundary, sampled post-step at boundary slots only — the per-slot
        # kernel path is untouched.  Counts are recovered from the recorder
        # at finalisation; only live gauges (probability sum, window sum,
        # cumulative listens) need boundary snapshots.  A drained row's
        # kernel state is frozen (empty active mask, no injections), so a
        # later global boundary reads exactly the values the row had when
        # it finished — no per-row boundary bookkeeping is needed.
        dynamics_window = self._dynamics_window
        dyn_prob_sum = dyn_window_sum = dyn_listens = None
        dyn_has_windows = False
        if dynamics_window:
            dyn_count = -(-max_slots // dynamics_window)
            dyn_prob_sum = np.zeros((dyn_count, replications))
            dyn_window_sum = np.zeros((dyn_count, replications))
            dyn_listens = np.zeros((dyn_count, replications), dtype=np.int64)
            dyn_has_windows = kernel.window_matrix() is not None

        # Per-replication arrival-exhaustion mask; monotone per segment, so
        # each segment is checked only until it flips.
        exhausted_rows = np.zeros(replications, dtype=bool)
        any_exhausted = False
        live = replications
        if stop_when_drained:
            for seg in segments:
                if seg.arrivals.exhausted(0):
                    # Nothing will ever arrive in this segment: all of its
                    # replications drain at slot 0.
                    seg.exhausted = True
                    seg.live = False
                    exhausted_rows[seg.rows] = True
                    num_slots[seg.rows] = 0
                    running[seg.rows] = False
                    any_exhausted = True
            if any_exhausted:
                live = int(np.count_nonzero(running))

        chunk_start = 0
        chunk_end = 0
        arrivals_chunk: np.ndarray | None = None
        # The chunk's slots with an arrival in some row, and the first of
        # them not yet passed.
        arrival_slots: list[int] = []
        arrival_cursor = 0
        no_arrivals = np.zeros(replications, dtype=np.int64)
        if calendar is None:
            row_ids = np.arange(replications)
            coin_buffer = np.empty((replications, capacity))
            send_buffer = np.empty((replications, capacity), dtype=bool)
            listen_buffer = np.empty((replications, capacity), dtype=bool)
        never_jams = jammer.never_jams
        contention_pre = None
        skipped = 0

        slot = 0
        while slot < max_slots and live:
            if slot >= chunk_end:
                chunk_start = slot
                chunk_end = min(slot + CHUNK_SLOTS, max_slots)
                count = chunk_end - chunk_start
                if coupled_arrivals is None:
                    if multi:
                        arrivals_chunk = np.zeros((replications, count), dtype=np.int64)
                        for seg in segments:
                            if seg.live:
                                arrivals_chunk[seg.rows] = seg.arrivals.chunk(
                                    chunk_start, count, seg.streams
                                )
                    else:
                        arrivals_chunk = segments[0].arrivals.chunk(
                            chunk_start, count, segments[0].streams
                        )
                    arrival_slots = (
                        np.flatnonzero(arrivals_chunk.any(axis=0)) + chunk_start
                    ).tolist()
                    arrival_cursor = 0
                jammer.begin_chunk(chunk_start, count, streams, running)
            while (
                arrival_cursor < len(arrival_slots)
                and arrival_slots[arrival_cursor] < slot
            ):
                arrival_cursor += 1
            next_arrival = (
                arrival_slots[arrival_cursor]
                if arrival_cursor < len(arrival_slots)
                else chunk_end
            )

            accessors = None
            idle_end = slot
            if skip_idle and next_arrival > slot:
                accessors = calendar.due(slot)
                if not accessors.size:
                    # No running row accesses or injects before the next due
                    # access, arrival, or (for a waiting empty row) arrival
                    # exhaustion; next_arrival never passes the chunk end.
                    idle_end = min(calendar.next_due(), next_arrival)
                    if stop_when_drained:
                        for seg in segments:
                            if seg.live and not seg.exhausted:
                                idle_end = min(idle_end, seg.exhaust_slot)

            if idle_end > slot:
                # Nothing changes state in the stretch: record it in bulk,
                # with the jam decisions stepping would have made slot by
                # slot (the backlog, and an adaptive jammer's contention,
                # are constant throughout).
                length = idle_end - slot
                if want_contention:
                    contention_pre = _contention(kernel, active)
                    if needs_contention:
                        jammer.set_contention(contention_pre)
                jammed_block = None
                if not never_jams:
                    jammed_block = np.empty((length, replications), dtype=bool)
                    for offset in range(length):
                        jammed_block[offset] = jammer.jam(slot + offset, backlog, running)
                recorder.record_idle(slot, idle_end, jammed_block, backlog)
                if collect_trace:
                    recorder.record_trace(slice(slot, idle_end), -1, contention_pre)
                    trace_senders.extend([_NO_EVENTS] * length)
                    if track_listens:
                        trace_listeners.extend([_NO_EVENTS] * length)
                if collect_potential:
                    recorder.record_potential(
                        slice(slot, idle_end),
                        *_potential_terms(kernel, active, backlog, coeffs),
                    )
                if dynamics_window:
                    for boundary in range(
                        slot // dynamics_window + 1, idle_end // dynamics_window + 1
                    ):
                        _sample_dynamics_gauges(
                            boundary - 1, kernel, active, listens,
                            dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows,
                        )
                skipped += length
                slot = idle_end
            else:
                backlog_pre = backlog
                if want_contention:
                    # Pre-injection contention with the *current* protocol
                    # state — exactly the scalar SystemView's C(t).
                    contention_pre = _contention(kernel, active)
                    if needs_contention:
                        jammer.set_contention(contention_pre)
                if coupled_arrivals is not None:
                    arriving = coupled_arrivals.arrivals_now(slot, backlog_pre, running)
                    inject = bool(arriving.any())
                elif next_arrival == slot:
                    assert arrivals_chunk is not None
                    arriving = arrivals_chunk[:, slot - chunk_start] * running
                    inject = True
                else:
                    arriving = no_arrivals
                    inject = False
                if inject:
                    total_after = injected + arriving
                    needed = int(total_after.max())
                    if needed > capacity:
                        capacity = max(needed, capacity * 2)
                        grown = (
                            np.zeros((replications, capacity), dtype=bool),
                            np.full((replications, capacity), -1, dtype=np.int64),
                            np.full((replications, capacity), -1, dtype=np.int64),
                            np.zeros((replications, capacity), dtype=np.int64),
                        )
                        for old, new in zip(
                            (active, arrival_slot, departure_slot, sends), grown
                        ):
                            new[:, : old.shape[1]] = old
                        active, arrival_slot, departure_slot, sends = grown
                        if listens is not None:
                            grown_listens = np.zeros((replications, capacity), dtype=np.int64)
                            grown_listens[:, : listens.shape[1]] = listens
                            listens = grown_listens
                        kernel.grow(capacity)
                        if calendar is not None:
                            calendar.grow(capacity)
                        else:
                            coin_buffer = np.empty((replications, capacity))
                            send_buffer = np.empty((replications, capacity), dtype=bool)
                            listen_buffer = np.empty((replications, capacity), dtype=bool)
                    # The new packets take the next columns of their rows,
                    # in packet-id order.
                    new_rows = np.repeat(np.arange(replications), arriving)
                    first = np.cumsum(arriving) - arriving
                    new_cells = (
                        new_rows * capacity
                        + np.repeat(injected - first, arriving)
                        + np.arange(new_rows.size)
                    )
                    _flat(active)[new_cells] = True
                    _flat(arrival_slot)[new_cells] = slot
                    kernel.init_packets(new_cells, new_rows)
                    if calendar is not None:
                        calendar.arrive(new_cells, new_rows, arriving, slot)
                    injected = total_after
                    backlog = backlog + arriving

                active_before = backlog
                jammed = jammer.jam(slot, backlog_pre, running)

                if calendar is not None:
                    if accessors is None:
                        accessors = calendar.due(slot)
                    access_rows = accessors // capacity
                    sent, gap_coins = calendar.decide(accessors, access_rows)
                    senders = accessors[sent]
                    send_rows = access_rows[sent]
                    send_cols = senders - send_rows * capacity
                    if track_listens:
                        listeners = accessors[~sent]
                else:
                    # Every active packet takes its row's next coin, in
                    # packet-id order (the backlog is each row's active
                    # count); inactive cells keep stale coins, masked below.
                    coin_buffer[active] = packet_coins.take(
                        np.repeat(row_ids, backlog), backlog
                    )
                    kernel.decide(coin_buffer, send_buffer, listen_buffer)
                    send = send_buffer
                    send &= active
                    listen = listen_buffer
                    listen &= active
                    send_rows, send_cols = np.nonzero(send)
                num_senders = np.bincount(send_rows, minlength=replications)
                if reactive:
                    # Step 3 of the scalar slot order: the reactive jammer
                    # sees this slot's senders before the channel resolves.
                    jammed = jammer.reactive_jam(
                        slot, send_rows, send_cols, num_senders,
                        backlog_pre, running, arrival_slot, jammed,
                    )
                if collect_trace:
                    # Captured before the winner departs, so the winner is
                    # among the senders — as in the scalar SlotRecord.
                    trace_senders.append((send_rows, send_cols))
                    if track_listens:
                        if calendar is not None:
                            listen_rows = listeners // capacity
                            trace_listeners.append(
                                (listen_rows, listeners - listen_rows * capacity)
                            )
                        else:
                            trace_listeners.append(np.nonzero(listen))
                if never_jams:
                    winners = running & (num_senders == 1)
                else:
                    winners = running & ~jammed & (num_senders == 1)
                # A sender in a winning row is that row's only sender.
                won = winners[send_rows]
                winner_rows = send_rows[won]
                winner_cols = send_cols[won]
                if calendar is not None:
                    _flat(sends)[senders] += 1
                    if track_listens:
                        _flat(listens)[listeners] += 1
                else:
                    sends += send
                    if listens is not None:
                        listens += listen
                active[winner_rows, winner_cols] = False
                departure_slot[winner_rows, winner_cols] = slot
                # Per-replication ternary feedback: what every accessor of
                # that replication's channel heard this slot.
                if never_jams:
                    empty_rows = num_senders == 0
                    noise_rows = num_senders > 1
                else:
                    empty_rows = ~jammed & (num_senders == 0)
                    noise_rows = jammed | (num_senders > 1)
                if calendar is not None:
                    calendar.settle(
                        accessors, access_rows, sent, gap_coins,
                        sent & winners[access_rows],
                        empty_rows[access_rows], noise_rows[access_rows], slot,
                    )
                else:
                    # Winners depart without a state update; the remaining
                    # senders are the slot's losers.
                    send[winner_rows, winner_cols] = False
                    kernel.on_feedback(empty_rows, noise_rows, send, listen, active)
                backlog = backlog - winners

                outcome = (num_senders > 0).astype(np.int8)
                outcome += outcome
                outcome -= winners
                if not never_jams:
                    outcome[jammed] = 3
                recorder.record(
                    slot, outcome, jammed, arriving, active_before, backlog, num_senders
                )
                if collect_trace:
                    winner_column = np.full(replications, -1, dtype=np.int64)
                    winner_column[winner_rows] = winner_cols
                    recorder.record_trace(slot, winner_column, contention_pre)
                if collect_potential:
                    recorder.record_potential(
                        slot, *_potential_terms(kernel, active, backlog, coeffs)
                    )
                if dynamics_window and (slot + 1) % dynamics_window == 0:
                    # Post-step, like the scalar accumulator: feedback
                    # applied, winners departed.
                    _sample_dynamics_gauges(
                        slot // dynamics_window, kernel, active, listens,
                        dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows,
                    )
                slot += 1

            if stop_when_drained:
                for seg in segments:
                    if seg.live and not seg.exhausted:
                        if seg.exhaust_slot is not None:
                            if slot >= seg.exhaust_slot:
                                seg.exhausted = True
                                exhausted_rows[seg.rows] = True
                                any_exhausted = True
                        else:
                            per_row = seg.arrivals.exhausted_rows(slot)
                            if per_row.any():
                                exhausted_rows[seg.rows] = per_row
                                any_exhausted = True
                                if per_row.all():
                                    seg.exhausted = True
                if any_exhausted:
                    finished = running & exhausted_rows & (backlog == 0)
                    if finished.any():
                        num_slots[finished] = slot
                        running &= ~finished
                        live = int(np.count_nonzero(running))
                        if multi:
                            for seg in segments:
                                if seg.live and not running[seg.rows].any():
                                    seg.live = False

        if dynamics_window and slot % dynamics_window:
            # The loop ended mid-window (max_slots not a multiple of the
            # window, or every row drained): one final partial-window sample.
            _sample_dynamics_gauges(
                slot // dynamics_window, kernel, active, listens,
                dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows,
            )

        # Post-loop telemetry stats.  The batch covered `slot` lockstep
        # slots: `skipped` of them recorded in bulk as idle stretches, the
        # rest stepped kernel rounds.  Every stepped round of a
        # reactive/adaptive batch is one feedback-loop iteration
        # (senders/contention handed back to the jammer kernels).
        stepped = int(slot) - skipped
        stats = {
            "kernel_invocations": stepped,
            "idle_slots_skipped": skipped,
            "slots_simulated": int(num_slots.sum()),
            "channel_accesses": int(sends.sum())
            + (int(listens.sum()) if listens is not None else 0),
            "feedback_iterations": stepped if (reactive or needs_contention) else 0,
            "mega_batch_segments": len(segments),
            "trace_materialisations": replications if collect_trace else 0,
            "potential_materialisations": replications if collect_potential else 0,
            "dynamics_materialisations": replications if dynamics_window else 0,
        }
        dynamics_buffers = (
            (dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows)
            if dynamics_window
            else None
        )
        finalize_args = (
            recorder, num_slots, backlog, segments, injected,
            arrival_slot, departure_slot, sends, listens,
            trace_senders, trace_listeners, has_windows, dynamics_buffers,
        )
        return finalize_args, stats

    # -- Finalisation --------------------------------------------------------

    def _finalize(
        self,
        recorder: _SlotRecorder,
        num_slots: np.ndarray,
        backlog: np.ndarray,
        segments: list[_Segment],
        injected: np.ndarray,
        arrival_slot: np.ndarray,
        departure_slot: np.ndarray,
        sends: np.ndarray,
        listens: np.ndarray | None,
        trace_senders: list[tuple[np.ndarray, np.ndarray]],
        trace_listeners: list[tuple[np.ndarray, np.ndarray]],
        has_windows: bool,
        dynamics_buffers: tuple | None,
    ) -> list[SimulationResult]:
        descriptions = [
            description for group in self._groups for description in group.descriptions
        ]
        protocol_names = [
            group.protocol.name for group in self._groups for _ in group.seeds
        ]
        seeds = self._seeds
        if dynamics_buffers is not None:
            from repro.dynamics.trajectory import jammer_budget
        results: list[SimulationResult] = [None] * len(seeds)  # type: ignore[list-item]
        for group, seg in zip(self._groups, segments):
            group_budget = (
                jammer_budget(group.jammer)
                if dynamics_buffers is not None
                else None
            )
            for index in range(seg.rows.start, seg.rows.stop):
                slots = int(num_slots[index])
                outcome = recorder.outcome[:slots, index]
                jammed = recorder.jammed[:slots, index]
                was_active = recorder.active_before[:slots, index] > 0
                jammed_active = jammed & was_active

                collector = MetricsCollector()
                collector.num_slots = slots
                collector.num_arrivals = int(recorder.arrivals[:slots, index].sum())
                collector.num_successes = int((outcome == 1).sum())
                collector.num_collisions = int((outcome == 2).sum())
                collector.num_empty_active = int(((outcome == 0) & was_active).sum())
                collector.num_jammed = int(jammed.sum())
                collector.num_jammed_active = int(jammed_active.sum())
                collector.num_active_slots = int(was_active.sum())
                collector.total_sends = int(recorder.num_senders[:slots, index].sum())
                collector.total_listens = (
                    int(listens[index].sum()) if listens is not None else 0
                )
                collector.jammed_active_slots = np.flatnonzero(jammed_active).tolist()

                packets = []
                for packet_id in range(int(injected[index])):
                    departed_at = int(departure_slot[index, packet_id])
                    packets.append(
                        PacketRecord(
                            packet_id=packet_id,
                            arrival_slot=int(arrival_slot[index, packet_id]),
                            departure_slot=None if departed_at < 0 else departed_at,
                            sends=int(sends[index, packet_id]),
                            listens=(
                                int(listens[index, packet_id])
                                if listens is not None
                                else 0
                            ),
                        )
                    )

                trace = None
                if self._collect_trace:
                    trace = self._materialize_trace(
                        recorder,
                        index,
                        slots,
                        trace_senders,
                        trace_listeners,
                    )
                potential = None
                if self._collect_potential:
                    potential = self._materialize_potential(
                        recorder, index, slots, has_windows
                    )
                dynamics = None
                if dynamics_buffers is not None:
                    dynamics = self._materialize_dynamics(
                        recorder, index, slots, dynamics_buffers, group_budget
                    )

                per_row_exhausted = seg.arrivals.exhausted_rows(slots)
                if per_row_exhausted is None:
                    arrivals_done = seg.arrivals.exhausted(slots)
                else:
                    arrivals_done = bool(
                        per_row_exhausted[index - seg.rows.start]
                    )
                results[self._order[index]] = SimulationResult(
                    config_description=descriptions[index],
                    protocol_name=protocol_names[index],
                    seed=seeds[index],
                    num_slots=slots,
                    drained=bool(backlog[index] == 0) and arrivals_done,
                    collector=collector,
                    packets=packets,
                    trace=trace,
                    potential=potential,
                    dynamics=dynamics,
                )
        return results

    def _materialize_dynamics(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        dynamics_buffers: tuple,
        budget: float | None,
    ):
        """Expand one row's recorder columns + gauge buffers into a trajectory.

        Counts come from cumulative sums of the per-slot recorder columns at
        each window end; the gauges come from the global boundary buffers,
        whose row values are frozen once a replication drains — so every
        snapshot matches what the scalar accumulator would have sampled at
        that row's own boundaries.  The snapshots then flow through the same
        :func:`~repro.dynamics.trajectory.build_trajectory` the scalar
        engine uses, making equal snapshots bit-identical trajectories.
        """
        from repro.dynamics.trajectory import WindowSnapshot, build_trajectory

        window = self._dynamics_window
        dyn_prob_sum, dyn_window_sum, dyn_listens, dyn_has_windows = (
            dynamics_buffers
        )
        snapshots = []
        if slots:
            outcome = recorder.outcome[:slots, index]
            cumulative_arrivals = np.cumsum(recorder.arrivals[:slots, index])
            cumulative_successes = np.cumsum(outcome == 1)
            cumulative_collisions = np.cumsum(outcome == 2)
            cumulative_jammed = np.cumsum(recorder.jammed[:slots, index])
            cumulative_sends = np.cumsum(recorder.num_senders[:slots, index])
            active_after = recorder.active_after[:slots, index]
            for j in range(-(-slots // window)):
                end = min((j + 1) * window, slots) - 1
                backlog = int(active_after[end])
                snapshots.append(
                    WindowSnapshot(
                        num_slots=end + 1,
                        arrivals=int(cumulative_arrivals[end]),
                        successes=int(cumulative_successes[end]),
                        collisions=int(cumulative_collisions[end]),
                        jammed=int(cumulative_jammed[end]),
                        sends=int(cumulative_sends[end]),
                        listens=int(dyn_listens[j, index]),
                        backlog=backlog,
                        window_sum=(
                            float(dyn_window_sum[j, index])
                            if dyn_has_windows
                            else 0.0
                        ),
                        window_count=backlog if dyn_has_windows else 0,
                        probability_sum=float(dyn_prob_sum[j, index]),
                    )
                )
        return build_trajectory(window, slots, snapshots, budget=budget)

    def _materialize_trace(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        trace_senders: list[tuple[np.ndarray, np.ndarray]],
        trace_listeners: list[tuple[np.ndarray, np.ndarray]],
    ) -> ExecutionTrace:
        """Expand per-slot event arrays into the scalar engine's trace form.

        Packet ids are assigned in injection order (as the scalar engine
        does), and sender/listener tuples come out in ascending packet-id
        order, which matches the scalar engine's iteration over its active
        dict.
        """
        arrivals = recorder.arrivals[:slots, index]
        outcome = recorder.outcome[:slots, index]
        jammed = recorder.jammed[:slots, index]
        active_before = recorder.active_before[:slots, index]
        active_after = recorder.active_after[:slots, index]
        winner = recorder.winner[:slots, index]
        contention = recorder.contention[:slots, index]
        potential = (
            recorder.potential[:slots, index] if self._collect_potential else None
        )
        records = []
        next_packet_id = 0
        for s in range(slots):
            count = int(arrivals[s])
            arrival_ids = tuple(range(next_packet_id, next_packet_id + count))
            next_packet_id += count
            rows_idx, cols_idx = trace_senders[s]
            senders = tuple(int(c) for c in cols_idx[rows_idx == index])
            if trace_listeners:
                rows_idx, cols_idx = trace_listeners[s]
                listeners = tuple(int(c) for c in cols_idx[rows_idx == index])
            else:
                listeners = ()
            winner_id = int(winner[s])
            records.append(
                SlotRecord(
                    slot=s,
                    outcome=_OUTCOMES[int(outcome[s])],
                    jammed=bool(jammed[s]),
                    arrivals=arrival_ids,
                    senders=senders,
                    listeners=listeners,
                    winner=None if winner_id < 0 else winner_id,
                    active_before=int(active_before[s]),
                    active_after=int(active_after[s]),
                    contention=float(contention[s]),
                    potential=(
                        float(potential[s]) if potential is not None else None
                    ),
                )
            )
        return ExecutionTrace(records=records)

    def _materialize_potential(
        self,
        recorder: _SlotRecorder,
        index: int,
        slots: int,
        has_windows: bool,
    ) -> PotentialTracker:
        """Expand the vectorized Φ accumulator into a scalar tracker."""
        tracker = PotentialTracker(self._potential_coefficients)
        active_after = recorder.active_after[:slots, index]
        h_col = recorder.h_term[:slots, index]
        l_col = recorder.l_term[:slots, index]
        inverse_col = recorder.inverse_window_sum[:slots, index]
        phi_col = recorder.potential[:slots, index]
        tracker.samples = [
            PotentialSample(
                slot=s,
                num_packets=int(active_after[s]) if has_windows else 0,
                h_term=float(h_col[s]),
                l_term=float(l_col[s]),
                contention=float(inverse_col[s]),
                potential=float(phi_col[s]),
            )
            for s in range(slots)
        ]
        return tracker
