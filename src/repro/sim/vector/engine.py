"""The batch simulation engine.

:class:`VectorSimulator` runs *every replication of one configuration at
once*: packet protocol state, send decisions, channel resolution, ternary
feedback, and metric accumulation are all held as ``(replications ×
packets)`` numpy arrays, and one pass of a loop advances the whole batch.
The per-pass cost is a fixed number of array operations, so the
interpreter overhead that dominates the scalar engine is paid once per pass
instead of once per packet per replication.

One calendar serves every kernel (:class:`_AccessCalendar`).  A packet's
state changes only when it accesses the channel, so every packet holds its
next-access slot, and a slot touches only the packets due: a coin splits
each accessor's send from listen or sleep (a send-only kernel's accessors
all send), the ternary feedback of its replication's channel updates its
state, and its next access is set.

* LOW-SENSING, decoupled LSB, BEB, polynomial and fixed-probability/ALOHA
  access rarely: a second coin draws a packet's next access, a
  Geometric(access probability) gap ahead, so cost follows channel
  accesses, not packets × slots;
* Sawtooth (whose clock ticks while a packet sleeps) and full-sensing MW
  (which listens every slot) access every slot they are active: their
  next access is always the next slot, and they draw no gap coin.

Stretches in which a row has no due access or arrival change none of its
state, so they are recorded in bulk, never across a ``CHUNK_SLOTS``
boundary, with each slot's jam decision taken from the jammer kernel
exactly as stepping would.  The slot body hands the rest of the slot its
senders' rows and, where the reactive jammer kernels read them, their
packet columns.  Per-packet listen counters feed the energy metrics.

Two loops drive the slot body (:class:`_Batch`), and one predicate,
:func:`steps_rows`, picks between them:

* the **lockstep** loop steps the union of every row's event slots: each
  pass resolves one slot of every running row, or records a stretch in
  which no row has an event in bulk.  It serves every batch;
* the **row** loop moves each running row to its own next event — its next
  due access, its next arrival, arrival exhaustion, or the chunk end — per
  pass: it records the row's idle stretch in bulk and resolves the row's
  event slot, so a pass costs the busiest row's events, not the union's.
  Rows still enter each ``CHUNK_SLOTS`` chunk together, so arrival chunks
  and adversary draws are consumed as in lockstep.  It serves the
  send-only kernels that access rarely (BEB, polynomial,
  fixed-probability), whatever the arrivals, the jammer and the outputs.

Every arrival schedule is oblivious, so each is drawn one ``CHUNK_SLOTS``
chunk ahead, and each row has one arrival-exhaustion slot (the first slot
from which nothing more can arrive), found once: a drained row ends there,
in either loop, and the result's ``drained`` flag reads it.

In every kernel a packet changes state only at its own row's events, so
every output and feedback jammer is kept per row: Φ is written where a row
resolves a slot and carried over its idle slots after the loop, dynamics
windows are sampled as each row crosses them, and an adaptive jammer reads
each row's contention after its last resolve.  :func:`steps_rows` says why
the other batches stay in lockstep.  Execution traces are not an output
here: a traced spec runs on the scalar engine
(:func:`~repro.sim.vector.support.vector_support`).

A replication consumes its packet stream only through its own events, in
packet-id order within a slot (:class:`~repro.sim.vector.rng.RowCoins`),
and its adversary stream per fixed ``CHUNK_SLOTS`` chunk while it runs, and
it spends a jamming budget in its own slot order, so every result is a
function of (spec, seed) alone: bit-identical run alone, in its group, in a
resized group, or inside a mega-batch, whatever the batch's packet
capacity, however many of its idle slots the batch skipped, and whichever
loop ran it.

The engine also runs **mega-batches**: :meth:`VectorSimulator.from_specs`
takes the specs of several configurations that share one batch key (one
protocol and jammer kernel family and one set of engine options; see
:func:`~repro.sim.vector.support.placement`) and stacks them into a
single ragged batch, parameters promoted to per-row arrays.  Each
configuration keeps its own *segment* — its own arrival schedule — and,
like any row, consumes exactly the random streams it would consume in a
standalone batch, so mega-batched results are **bit-identical** to
per-group vector execution (enforced by tests).  Only the per-pass Python
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

import bisect
import math
from typing import Any, Sequence

import numpy as np

from repro.telemetry import current as current_telemetry

from repro.adversary.arrivals import ArrivalProcess
from repro.adversary.jamming import Jammer
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
from repro.sim.vector.protocols import make_protocol_row_kernel
from repro.sim.vector.rng import RowCoins, VectorStreams, geometric_gaps
from repro.sim.vector.support import batch_difference, lockstep_components, placement

#: Next-access slot of a cell with no access ahead: not yet arrived,
#: departed, or past the run's horizon.
_NEVER = np.iinfo(np.int64).max


def _row_totals(values: Any, active: np.ndarray, rows: Any = slice(None)) -> np.ndarray:
    """Each listed row's sum of ``values`` over its active cells.

    ``values`` is a scalar, a per-row column or a cell matrix.  The
    cumulative sum reproduces the scalar engine's sequential ascending-id
    additions bitwise (inactive cells add +0.0, a float no-op).
    """
    if isinstance(values, np.ndarray):
        values = values[rows]
    return np.where(active[rows], values, 0.0).cumsum(axis=1)[:, -1]


def _contention(kernel: Any, active: np.ndarray, rows: Any = slice(None)) -> np.ndarray:
    """C(t) per listed row: the active packets' summed send probabilities."""
    return _row_totals(kernel.sending_probabilities(), active, rows)


def _carried(written: np.ndarray) -> np.ndarray:
    """One row's post-slot column, carried over the slots it did not resolve.

    A row's state changes only at the slots it resolves (the others stay
    NaN), so every other slot ends in the state of the last resolved slot
    before it — or, before the first, in the empty state, whose values are
    0.0.
    """
    last = np.maximum.accumulate(
        np.where(np.isnan(written), -1, np.arange(written.size))
    )
    return np.where(last >= 0, written[last], 0.0)


def _exhaustion_slot(process: ArrivalProcess, max_slots: int) -> int:
    """First slot from which an oblivious arrival process is exhausted.

    Its ``exhausted`` is pure and monotone in the slot, so a binary search
    over the run finds it; ``max_slots + 1`` when the process outlasts the
    run.  Every row of a segment exhausts at this slot.
    """
    if not process.exhausted(max_slots):
        return max_slots + 1
    low, high = 0, max_slots
    while low < high:
        middle = (low + high) // 2
        if process.exhausted(middle):
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


#: The recorder columns of :func:`_potential_terms`, in its order.
_POTENTIAL_TERMS = ("h_term", "l_term", "inverse_window_sum", "potential")


class _SlotRecorder:
    """Growable ``(slots × replications)`` per-slot observation buffers.

    The base buffers feed metric finalisation; the potential buffers (H,
    L, Σ1/w, Φ) are only allocated when the batch collects Φ, and are
    written only where a row resolves a slot (NaN elsewhere, see
    :func:`_carried`).  Base buffers start at an idle slot's values (empty,
    unjammed, no arrivals, no senders) and every row-slot is written at
    most once, so an idle slot needs no write unless it is jammed.
    Backlogs and jam flags are derived (:func:`_backlogs`, ``outcome ==
    3``), not stored.  The slot body writes a resolved slot's columns
    directly, at one slot of every row or at each row's own slot; one spare
    row past the slots takes the writes of per-row slot ``-1`` (rows not
    resolving a slot), and is never read.
    """

    _BASE_FIELDS = (
        ("outcome", np.int8, 0),
        ("arrivals", np.int32, 0),
        ("num_senders", np.int32, 0),
    )
    _POTENTIAL_FIELDS = tuple((name, np.float64, np.nan) for name in _POTENTIAL_TERMS)

    def __init__(
        self, replications: int, initial_slots: int = 1024, *, potential: bool = False
    ) -> None:
        self._replications = replications
        self._capacity = max(1, initial_slots)
        self._fields = list(self._BASE_FIELDS)
        if potential:
            self._fields += list(self._POTENTIAL_FIELDS)
        for name, dtype, fill in self._fields:
            setattr(self, name, self._alloc(self._capacity, dtype, fill))

    def _alloc(self, capacity: int, dtype, fill) -> np.ndarray:
        return np.full((capacity + 1, self._replications), fill, dtype=dtype)

    def reserve(self, stop: int) -> None:
        """Make room for slots ``0 .. stop-1``."""
        if stop <= self._capacity:
            return
        new_capacity = max(stop, self._capacity * 2)
        for name, dtype, fill in self._fields:
            old = getattr(self, name)
            grown = self._alloc(new_capacity, dtype, fill)
            grown[: self._capacity] = old[: self._capacity]
            setattr(self, name, grown)
        self._capacity = new_capacity

    def record_jams(self, slots: np.ndarray | int, rows: np.ndarray) -> None:
        """Jammed idle row-slots."""
        self.outcome[slots, rows] = 3


def _backlogs(arrivals: np.ndarray, outcome: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row's backlog per slot, after injection and after the slot.

    Every success is a departure, so the backlog after slot ``s`` is the
    arrivals through ``s`` less the successes through ``s`` — exact
    integers from two cumulative sums.
    """
    successes = outcome == 1
    after = np.cumsum(arrivals) - np.cumsum(successes)
    return after + successes, after


def _row_slots(slot: int | np.ndarray, rows: np.ndarray) -> int | np.ndarray:
    """The slot of each listed row: one for all (lockstep), or per row."""
    return slot if isinstance(slot, int) else slot[rows]


#: A batch's engine options, as its batch key holds them: max_slots,
#: collect_potential and the dynamics window.
_Options = tuple[int, bool, int]


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
    """Next-access slots and per-row coins of a batch's kernel.

    A packet changes state only when it accesses the channel, so between two
    accesses it repeats one trial per slot at a fixed access probability
    ``p``: the slots to its next access are Geometric(p), drawn once by
    inversion.  A packet of an every-slot kernel accesses every slot it is
    active, so its next access is always the next slot and no gap is drawn.
    ``next_access`` holds each cell's next access slot, and a slot touches
    only the packets due.

    Coins come from each replication's own packet stream, consumed only by
    that row's events in packet-id order: one per arriving packet for its
    first gap (a first access may fall in the arrival slot), then per
    accessor a send-vs-listen coin (listening kernels only) and the coin of
    its next gap, drawn before the channel resolves (a winner's next access
    is then reset to ``_NEVER``).  An every-slot kernel's packet takes one
    coin a slot, its send coin, and none on arrival.  A ``slot`` is one slot
    for every row, or each row's own slot.
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
        self.every_slot = kernel.every_slot
        self.replications = replications
        self.horizon = horizon
        self.coins = coins
        self._hold(np.full((replications, capacity), _NEVER, dtype=np.int64))

    def _hold(self, next_access: np.ndarray) -> None:
        self.next_access = next_access
        # The same slots indexed by flat cell.
        self.next_access_flat = next_access.reshape(-1)

    def grow(self, capacity: int) -> None:
        grown = np.full((self.replications, capacity), _NEVER, dtype=np.int64)
        grown[:, : self.next_access.shape[1]] = self.next_access
        self._hold(grown)

    def arrive(
        self,
        cells: np.ndarray,
        rows: np.ndarray,
        counts: np.ndarray,
        slot: int | np.ndarray,
    ) -> None:
        """Schedule the first access of packets injected at ``slot``."""
        if self.every_slot:
            self.next_access_flat[cells] = _row_slots(slot, rows)
            return
        # A first gap counts from ``slot - 1``: the capped gap is one slot
        # longer so that at slot 0 it still lands past the run.
        gaps = geometric_gaps(
            self.coins.take(rows, counts),
            self.kernel.access_probability(cells, rows),
            self.horizon + 1,
        )
        gaps += _row_slots(slot, rows) - 1
        self.next_access_flat[cells] = gaps

    def due(self, slot: int | np.ndarray) -> np.ndarray:
        """Cells accessing at ``slot``, row by row in packet-id order.

        Per-row slots match only their own row; a negative one matches
        nothing.
        """
        if isinstance(slot, int):
            return (self.next_access_flat == slot).nonzero()[0]
        return (self.next_access == slot[:, None]).reshape(-1).nonzero()[0]

    def next_due(self) -> int:
        return int(self.next_access_flat.min())

    def next_due_rows(self) -> np.ndarray:
        """Each row's next access slot (``_NEVER`` for a row with none)."""
        return self.next_access.min(axis=1)

    def decide(
        self, cells: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(sent, gap coins)`` of the accessors at ``cells``; ``sent`` is
        ``None`` when every accessor sends (a send-only kernel)."""
        counts = np.bincount(rows, minlength=self.replications)
        share = self.kernel.send_share(cells, rows)
        if self.every_slot:
            return self.coins.take(rows, counts) < share, None
        if share is None:
            return None, self.coins.take(rows, counts)
        send_coins, gap_coins = self.coins.take(rows, counts, 2)
        return send_coins < share, gap_coins

    def settle(
        self,
        cells: np.ndarray,
        rows: np.ndarray,
        gap_coins: np.ndarray | None,
        heard: np.ndarray,
        slot: int | np.ndarray,
    ) -> None:
        """Feedback and the next access of every accessor, winners included.

        ``heard`` is each accessor's row outcome code.
        """
        probabilities = self.kernel.on_access(cells, rows, heard)
        if self.every_slot:
            self.next_access_flat[cells] = _row_slots(slot, rows) + 1
            return
        gaps = geometric_gaps(gap_coins, probabilities, self.horizon)
        gaps += _row_slots(slot, rows)
        self.next_access_flat[cells] = gaps


class _Segment:
    """One group's arrival schedule inside a (mega-)batch, over its rows."""

    __slots__ = ("rows", "streams", "arrivals", "exhaust_slot", "live")

    def __init__(
        self, rows: slice, streams: Any, process: ArrivalProcess, max_slots: int
    ) -> None:
        self.rows = rows
        self.streams = streams
        self.arrivals = make_arrivals_kernel(process, rows.stop - rows.start)
        self.exhaust_slot = _exhaustion_slot(process, max_slots)
        self.live = True


def steps_rows(kernel: Any) -> bool:
    """Whether a batch runs the row loop rather than lockstep.

    Results are the same in either loop (every output and feedback jammer
    is kept per row); the row loop pays where a batch's rows have their
    events in different slots.  Lockstep keeps:

    * LOW-SENSING and decoupled LSB (listening kernels), whose rows access
      so often that stepping them alone saves no passes worth their cost:
      LSB N=2000 ×8 gave identical results but ran slower by row, median
      ratio 1.05–1.11 over three sets of 6–12 alternating pairs, and 1.17
      (quartiles 1.13–1.25, slower in 11 of 12 pairs) once the slot body
      updated each accessor once;
    * the every-slot kernels (Sawtooth, full-sensing MW), where every slot
      of a row with an active packet is an event: Sawtooth batches
      (N=100–800 ×8 seeds) gave identical results but ran slower by row,
      median ratio 1.32 (range 1.20–1.46) over 8 in-process pairs, and 1.29
      (1.00–1.45) over 8 more.
    """
    return not kernel.listens and not kernel.every_slot


class _Batch:
    """One batch's kernels and per-packet arrays, and the loops that run it.

    :meth:`resolve` is the one slot body (inject, decide, channel,
    departures, feedback, record) and :meth:`jam_idle` records the jams of
    idle stretches; each takes one slot for every row or each row's own
    slot.  :meth:`lockstep` and :meth:`row_steps` drive them, and
    :attr:`stepping` names the loop :meth:`run` picks.
    """

    def __init__(self, groups: list[_GroupConfig], options: _Options) -> None:
        max_slots, self.collect_potential, self.dynamics_window = options
        self.max_slots = max_slots
        seeds = [seed for group in groups for seed in group.seeds]
        replications = self.replications = len(seeds)
        streams = self.streams = VectorStreams(seeds)

        self.segments: list[_Segment] = []
        # The packet columns: enough for every arrival a bounded schedule
        # can make, grown by doubling otherwise.  No result depends on it.
        capacity = 1
        start = 0
        for group in groups:
            stop = start + len(group.seeds)
            process = group.arrival_process
            bound = process.total_planned()
            capacity = max(capacity, bound if bound is not None else 64)
            self.segments.append(
                _Segment(slice(start, stop), streams.slice(start, stop), process, max_slots)
            )
            start = stop
        self.capacity = capacity
        self.multi = len(self.segments) > 1

        kernel = self.kernel = make_protocol_row_kernel(
            [(group.protocol, len(group.seeds)) for group in groups], capacity
        )
        jammer = self.jammer = make_row_jammer_kernel(
            [(group.jammer, len(group.seeds)) for group in groups]
        )
        self.calendar = _AccessCalendar(
            kernel, RowCoins(streams.packet_generators), replications, capacity, max_slots
        )
        self.track_listens = kernel.listens
        self.reactive = jammer.reactive
        self.needs_contention = jammer.needs_contention
        self.never_jams = jammer.never_jams
        if self.needs_contention:
            # Each row's contention after its last resolve: the pre-injection
            # C(t) of its next slot, zero before any packet arrives.
            jammer.set_contention(np.zeros(replications))
        self.stepping = "rows" if steps_rows(kernel) else "lockstep"

        self.row_ids = np.arange(replications)
        self.active = self.arrival_slot = self.departure_slot = None
        self.sends = self.listens = None
        self._hold_cells(capacity)
        self.injected = np.zeros(replications, dtype=np.int64)
        self.backlog = np.zeros(replications, dtype=np.int64)
        self.running = np.ones(replications, dtype=bool)
        self.num_slots = np.full(replications, max_slots, dtype=np.int64)
        self.recorder = _SlotRecorder(replications, potential=self.collect_potential)
        # Loop statistics: the rounds that resolved a slot (of one row or of
        # all), and lockstep's bulk-recorded slots.
        self.iterations = 0
        self.skipped = 0
        self.windowed = kernel.window_matrix() is not None
        # Φ's coefficients are the defaults, as on the scalar engine.
        self.coefficients = PotentialCoefficients()

        # Windowed dynamics gauges (probability sum, window sum, cumulative
        # listens): one row per window, written for each row as it crosses
        # the window's end (:meth:`sample_windows`).  Counts are recovered
        # from the recorder at finalisation.
        self.gauges: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        if self.dynamics_window:
            count = -(-max_slots // self.dynamics_window)
            self.gauges = (
                np.zeros((count, replications)),
                np.zeros((count, replications)),
                np.zeros((count, replications), dtype=np.int64),
            )
            # Each row's first slot past its first unsampled window.
            self.window_due = np.full(replications, self.dynamics_window, dtype=np.int64)

        # Each row's arrival-exhaustion slot: a drained row ends there.
        self.exhaust_at = np.empty(replications, dtype=np.int64)
        for seg in self.segments:
            self.exhaust_at[seg.rows] = seg.exhaust_slot
        self.live = replications
        # Rows with nothing to arrive drain at slot 0.
        empty = self.exhaust_at == 0
        if empty.any():
            self._finish(empty, 0)

    def run(self) -> None:
        if self.stepping == "rows":
            self.row_steps()
        else:
            self.lockstep()
        if self.dynamics_window:
            # Each row's windows left, its last one maybe partial, end in
            # its final state: sample up to the end of its last window.
            self.sample_windows(
                self.num_slots + self.dynamics_window - 1,
                np.ones(self.replications, dtype=bool),
            )

    # -- Shared by both loops -------------------------------------------------

    def sample_windows(self, slot: int | np.ndarray, mask: np.ndarray) -> None:
        """Sample the dynamics gauges of ``mask``'s windows that end before ``slot``.

        ``slot`` is one slot for every row or each row's own.  A row's state
        changes only where it resolves a slot, so before it resolves
        ``slot`` every window ending before it ends in the state the row
        has now.  Each window is sampled once per row, with the same
        post-step values the scalar accumulator records at its end.
        """
        crossing = mask & (slot >= self.window_due)
        if not crossing.any():
            return
        window = self.dynamics_window
        rows = np.flatnonzero(crossing)
        first = self.window_due[rows] // window - 1
        reached = np.broadcast_to(_row_slots(slot, rows) // window, rows.shape)
        self.window_due[rows] = (reached + 1) * window
        kernel, active = self.kernel, self.active
        probability_sum, window_sum, listens = self.gauges
        samples = [(probability_sum, _contention(kernel, active, rows))]
        if self.windowed:
            samples.append((window_sum, _row_totals(kernel.window_matrix(), active, rows)))
        if self.listens is not None:
            samples.append((listens, self.listens[rows].sum(axis=1)))
        # Every crossed window of a row takes the row's one set of values.
        spans = list(zip(rows.tolist(), first.tolist(), reached.tolist()))
        for gauge, values in samples:
            for (row, start, stop), value in zip(spans, values.tolist()):
                gauge[start:stop, row] = value

    def begin_chunk(self, start: int) -> tuple[int, np.ndarray]:
        """Enter the chunk at ``start``: its end and arrival counts.

        Every live segment draws its arrivals for the chunk and the jammer
        its coins for the rows still running — exactly once per chunk, in
        either loop.
        """
        end = min(start + CHUNK_SLOTS, self.max_slots)
        count = end - start
        if self.multi:
            chunk = np.zeros((self.replications, count), dtype=np.int64)
            for seg in self.segments:
                if seg.live:
                    chunk[seg.rows] = seg.arrivals.chunk(start, count, seg.streams)
        else:
            seg = self.segments[0]
            chunk = seg.arrivals.chunk(start, count, seg.streams)
        self.jammer.begin_chunk(start, count, self.streams, self.running)
        self.recorder.reserve(end)
        return end, chunk

    def jam_idle(
        self, start: int | np.ndarray, stop: int | np.ndarray, mask: np.ndarray
    ) -> None:
        """Record the jams of idle slots ``start .. stop-1`` of ``mask``'s rows.

        ``start``/``stop`` are one stretch for every row or one per row;
        the jammer decides the whole ``(slots × rows)`` block at once, with
        each row's constant backlog, spending budgets in slot order as
        stepping would.
        """
        lengths = stop - start
        per_row = not isinstance(lengths, int)
        span = int(np.max(lengths, where=mask, initial=0)) if per_row else lengths
        if span <= 0:
            return
        offsets = np.arange(span)[:, None]
        if per_row:
            inside = mask & (offsets < lengths)
        else:
            inside = np.broadcast_to(mask, (span, self.replications))
        jammed = self.jammer.jam(start + offsets, self.backlog, inside)
        if jammed.any():
            jam_offsets, jam_rows = np.nonzero(jammed)
            self.recorder.record_jams(
                _row_slots(start, jam_rows) + jam_offsets, jam_rows
            )

    def _hold_cells(self, capacity: int) -> None:
        """(Re)build the per-packet matrices at ``capacity`` columns, keeping
        what the old ones held, and a flat view of each, indexed by cell."""

        def widened(old: np.ndarray | None, fill: Any, dtype: Any) -> np.ndarray:
            new = np.full((self.replications, capacity), fill, dtype=dtype)
            if old is not None:
                new[:, : old.shape[1]] = old
            return new

        self.active = widened(self.active, False, bool)
        self.arrival_slot = widened(self.arrival_slot, -1, np.int64)
        self.departure_slot = widened(self.departure_slot, -1, np.int64)
        self.sends = widened(self.sends, 0, np.int64)
        if self.track_listens:
            self.listens = widened(self.listens, 0, np.int64)
            self.listens_flat = self.listens.reshape(-1)
        self.active_flat = self.active.reshape(-1)
        self.arrival_slot_flat = self.arrival_slot.reshape(-1)
        self.departure_slot_flat = self.departure_slot.reshape(-1)
        self.sends_flat = self.sends.reshape(-1)

    def _grow(self, capacity: int) -> None:
        self._hold_cells(capacity)
        self.kernel.grow(capacity)
        self.calendar.grow(capacity)
        self.capacity = capacity

    def _inject(self, slot: int | np.ndarray, arriving: np.ndarray) -> None:
        total_after = self.injected + arriving
        needed = int(total_after.max())
        if needed > self.capacity:
            self._grow(max(needed, self.capacity * 2))
        capacity = self.capacity
        # The new packets take the next columns of their rows, in packet-id
        # order.
        new_rows = np.repeat(self.row_ids, arriving)
        first = np.cumsum(arriving) - arriving
        new_cells = (
            new_rows * capacity
            + np.repeat(self.injected - first, arriving)
            + np.arange(new_rows.size)
        )
        self.active_flat[new_cells] = True
        self.arrival_slot_flat[new_cells] = _row_slots(slot, new_rows)
        self.kernel.init_packets(new_cells, new_rows)
        self.calendar.arrive(new_cells, new_rows, arriving, slot)
        self.injected = total_after
        self.backlog = self.backlog + arriving

    def resolve(
        self,
        slot: int | np.ndarray,
        mask: np.ndarray,
        arriving: np.ndarray | None,
        accessors: np.ndarray | None = None,
    ) -> int:
        """Resolve one slot of each row in ``mask``; returns how many packets
        left.

        ``slot`` is the slot of every row (lockstep) or each row's own slot
        (row stepping; ``-1`` outside the mask).  ``arriving`` counts the
        slot's arrivals per row (``None``: none), and ``accessors`` are the
        due cells when the caller already looked them up.
        """
        kernel = self.kernel
        calendar = self.calendar
        jammer = self.jammer
        if self.dynamics_window:
            self.sample_windows(slot, mask)
        backlog_pre = self.backlog
        if arriving is not None:
            self._inject(slot, arriving)
        jammed = None if self.never_jams else jammer.jam(slot, backlog_pre, mask)

        if accessors is None:
            accessors = calendar.due(slot)
        capacity = self.capacity
        access_rows = accessors // capacity
        sent, gap_coins = calendar.decide(accessors, access_rows)
        if sent is None:
            senders, send_rows = accessors, access_rows
        else:
            senders, send_rows = accessors[sent], access_rows[sent]
        num_senders = np.bincount(send_rows, minlength=self.replications)
        if self.reactive:
            # Step 3 of the scalar slot order: the reactive jammer sees this
            # slot's senders, and their packet columns, before the channel
            # resolves.
            jammed = jammer.reactive_jam(
                slot, send_rows, senders - send_rows * capacity, num_senders,
                backlog_pre, mask, self.arrival_slot, jammed,
            )
        # The row's outcome code: empty, success or collision by sender
        # count, or jammed.  A row outside the mask has no sender and no jam,
        # so the winning rows are the successes, and every accessor hears
        # its row's code.
        outcome = np.minimum(num_senders, 2)
        if jammed is not None:
            outcome[jammed] = 3
        winners = outcome == 1
        self.sends_flat[senders] += 1
        if self.track_listens:
            self.listens_flat[accessors[~sent]] += 1
        calendar.settle(accessors, access_rows, gap_coins, outcome[access_rows], slot)
        # Winners leave by cell, after settle gave every accessor a next
        # access; a sender in a winning row is that row's only sender.
        won = winners[send_rows]
        leaving = senders[won]
        if leaving.size:
            self.active_flat[leaving] = False
            self.departure_slot_flat[leaving] = _row_slots(slot, send_rows[won])
            calendar.next_access_flat[leaving] = _NEVER
            self.backlog = self.backlog - winners

        recorder = self.recorder
        at = slot if isinstance(slot, int) else (slot, self.row_ids)
        recorder.outcome[at] = outcome
        recorder.num_senders[at] = num_senders
        if arriving is not None:
            recorder.arrivals[at] = arriving
        if self.needs_contention:
            # The rows that did not resolve keep their contention.
            jammer.set_contention(_contention(kernel, self.active))
        if self.collect_potential:
            terms = _potential_terms(
                kernel, self.active, self.backlog, self.coefficients
            )
            for name, values in zip(_POTENTIAL_TERMS, terms):
                getattr(recorder, name)[at] = values
        return leaving.size

    def _finish(self, finished: np.ndarray, slot: int | np.ndarray) -> None:
        """End the drained rows in ``finished`` at ``slot`` (one or per row)."""
        self.num_slots[finished] = slot if isinstance(slot, int) else slot[finished]
        self.running &= ~finished
        self.live = int(np.count_nonzero(self.running))
        if self.multi:
            for seg in self.segments:
                if seg.live and not self.running[seg.rows].any():
                    seg.live = False

    # -- The lockstep loop ----------------------------------------------------

    def lockstep(self) -> None:
        """Step the union of every row's event slots, all rows together."""
        calendar = self.calendar
        running = self.running
        max_slots = self.max_slots
        exhaust_at = self.exhaust_at
        # The running rows' distinct exhaustion slots, ascending, then one
        # past the run: the first is where the drained check starts, and an
        # idle stretch ends at the next one ahead (a waiting empty row ends
        # there).  A row that ended drained has passed its own, so every
        # row still ahead of its slot is running.
        exhaust_slots = sorted(set(exhaust_at[running].tolist())) + [max_slots + 1]
        first_exhaust = exhaust_slots[0]
        # A row can end only after a departure, or, empty, on reaching its
        # exhaustion slot: the next such slot past the last drained check.
        check_at = first_exhaust

        chunk_start = 0
        chunk_end = 0
        arrivals_chunk = None
        # The chunk's slots with an arrival in some row, and the first of
        # them not yet passed.
        arrival_slots: list[int] = []
        arrival_cursor = 0
        skipped = 0

        slot = 0
        while slot < max_slots and self.live:
            if slot >= chunk_end:
                chunk_start = slot
                chunk_end, arrivals_chunk = self.begin_chunk(slot)
                arrival_slots = (
                    np.flatnonzero(arrivals_chunk.any(axis=0)) + chunk_start
                ).tolist()
                arrival_cursor = 0
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
            departed = 0
            idle_end = slot
            if next_arrival > slot:
                accessors = calendar.due(slot)
                if not accessors.size:
                    # No running row accesses or injects before the next due
                    # access, arrival, or (for a waiting empty row) arrival
                    # exhaustion; next_arrival never passes the chunk end.
                    idle_end = min(
                        calendar.next_due(),
                        next_arrival,
                        exhaust_slots[bisect.bisect_right(exhaust_slots, slot)],
                    )

            if idle_end > slot:
                # Nothing changes state in the stretch: record it in bulk,
                # with the jam decisions stepping would have made slot by
                # slot (the backlog, and an adaptive jammer's contention,
                # are constant throughout).
                if not self.never_jams:
                    self.jam_idle(slot, idle_end, running)
                skipped += idle_end - slot
                slot = idle_end
            else:
                arriving = None
                if next_arrival == slot:
                    arriving = arrivals_chunk[:, slot - chunk_start] * running
                departed = self.resolve(slot, running, arriving, accessors)
                slot += 1

            if slot >= first_exhaust and (departed or slot >= check_at):
                check_at = exhaust_slots[bisect.bisect_right(exhaust_slots, slot)]
                finished = running & (self.backlog == 0)
                if finished.any():
                    finished &= exhaust_at <= slot
                    if finished.any():
                        self._finish(finished, slot)

        self.iterations = slot - skipped
        self.skipped = skipped

    # -- The row loop ---------------------------------------------------------

    def row_steps(self) -> None:
        """Move each running row to its own next event, one per pass.

        A row's event is its next due access, its next arrival, arrival
        exhaustion (while it waits empty for it), or the chunk end; the
        pass records the row's stretch before it in bulk and resolves the
        event slot of every row whose event is an access or an arrival.
        All rows enter each chunk together.
        """
        calendar = self.calendar
        running = self.running
        row_ids = self.row_ids
        max_slots = self.max_slots
        may_jam = not self.never_jams
        # Each row's first exhausted slot, where an empty row ends.
        exhaust_at = self.exhaust_at
        row_slot = np.zeros(self.replications, dtype=np.int64)
        resolved = 0
        chunk_start = 0
        while chunk_start < max_slots and self.live:
            chunk_end, arrivals_chunk = self.begin_chunk(chunk_start)
            count = chunk_end - chunk_start
            row_slot[:] = chunk_start
            # Each row's first arrival slot at or after each chunk offset.
            next_arrival = None
            if arrivals_chunk.any():
                columns = np.where(arrivals_chunk > 0, np.arange(count), count)
                next_arrival = np.empty((self.replications, count + 1), dtype=np.int64)
                next_arrival[:, :count] = np.minimum.accumulate(
                    columns[:, ::-1], axis=1
                )[:, ::-1]
                next_arrival[:, count] = count
                next_arrival += chunk_start
            # Rows whose arrivals exhaust inside the chunk stop there once.
            waits = None
            inside = (exhaust_at > chunk_start) & (exhaust_at < chunk_end)
            if inside.any():
                waits = np.where(inside, exhaust_at, chunk_end)
            pending = running.copy()
            while pending.any():
                event = calendar.next_due_rows()
                if next_arrival is not None:
                    np.minimum(
                        event, next_arrival[row_ids, row_slot - chunk_start], out=event
                    )
                if waits is None:
                    step = pending & (event < chunk_end)
                    stop = np.where(step, event, chunk_end)
                else:
                    # A due access at the exhaustion slot steps: the row is
                    # not empty, so it cannot end there.
                    cap = np.where(row_slot < waits, waits, chunk_end)
                    step = pending & (event <= cap) & (event < chunk_end)
                    stop = np.where(step, event, cap)
                if may_jam:
                    self.jam_idle(row_slot, stop, pending)
                if step.any():
                    resolved += 1
                    arriving = None
                    if next_arrival is not None:
                        arriving = arrivals_chunk[
                            row_ids, np.where(step, stop - chunk_start, 0)
                        ] * step
                        if not arriving.any():
                            arriving = None
                    self.resolve(np.where(step, stop, -1), step, arriving)
                np.copyto(row_slot, stop + step, where=pending)
                empty = pending & (self.backlog == 0)
                if empty.any():
                    finished = empty & (row_slot >= exhaust_at)
                    if finished.any():
                        self._finish(finished, row_slot)
                pending = running & (row_slot < chunk_end)
            chunk_start = chunk_end
        self.iterations = resolved

    # -- Post-loop statistics -------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The hot-loop counters, all derived from post-loop state."""
        slots_simulated = int(self.num_slots.sum())
        stats = {
            "kernel_invocations": self.iterations,
            "idle_slots_skipped": self.skipped,
            "slots_simulated": slots_simulated,
            "channel_accesses": int(self.sends.sum())
            + (int(self.listens.sum()) if self.listens is not None else 0),
            # Every stepped round of a reactive/adaptive batch is one
            # feedback-loop iteration (senders/contention handed back to the
            # jammer).
            "feedback_iterations": (
                self.iterations if (self.reactive or self.needs_contention) else 0
            ),
            "mega_batch_segments": len(self.segments),
            "potential_materialisations": (
                self.replications if self.collect_potential else 0
            ),
            "dynamics_materialisations": (
                self.replications if self.dynamics_window else 0
            ),
        }
        if self.stepping == "rows":
            # A row resolves exactly the slots with an arrival or a send;
            # every other slot it simulated was recorded in bulk.
            span = int(self.num_slots.max(initial=0))
            recorder = self.recorder
            events = (recorder.arrivals[:span] > 0) | (recorder.num_senders[:span] > 0)
            events &= np.arange(span)[:, None] < self.num_slots
            resolved = int(np.count_nonzero(events))
            stats["row_slots_resolved"] = resolved
            stats["row_slots_skipped"] = slots_simulated - resolved
        return stats


class VectorSimulator:
    """Runs a batch of replications together.

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
        self._options = options

    # -- Construction ---------------------------------------------------------

    @classmethod
    def from_specs(cls, specs: Sequence[Any]) -> "VectorSimulator":
        """Build one lockstep batch from specs, in any order.

        Specs are grouped by their group key (everything but the seed) in
        first-seen order, and every spec must share the first one's batch
        key (:func:`~repro.sim.vector.support.placement`): the protocol
        class, the jammer class with its schedule, and the engine options.
        Parameters and arrival schedules may differ between groups; the
        kernels promote parameters to per-row arrays, and each group keeps
        its own arrival schedule.  :meth:`run` returns results in
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
        order = [index for indices in members.values() for index in indices]
        # One batch key means one set of engine options.
        return cls(groups, first.batch.options, order)

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

        The loop and result materialisation (:meth:`_finalize`) are timed as
        separate telemetry phases when a session is active; the ``simulate``
        span names the batch's protocol and its loop (``stepping="rows"`` or
        ``"lockstep"``, see :func:`steps_rows`).  The hot-loop counters are
        all derived from post-loop state — nothing is sampled inside the
        per-slot path:

        * ``kernel_invocations``: the loop's slot-resolution rounds — stepped
          lockstep slots, or row-loop passes that resolved a slot;
        * ``idle_slots_skipped`` (lockstep): slots recorded in bulk, so that
          with the stepped rounds they cover the batch's longest run;
        * ``row_slots_resolved`` and ``row_slots_skipped`` (row loop): the
          row-slots resolved one by one and recorded in bulk; they sum to
          ``slots_simulated``;
        * ``slots_simulated``, ``channel_accesses``, ``feedback_iterations``
          and the potential/dynamics materialisations.
        """
        tele = current_telemetry()
        if not tele.enabled:
            batch = _Batch(self._groups, self._options)
            batch.run()
            return self._finalize(batch)
        replications = len(self._seeds)
        with tele.span(
            "simulate",
            kind="phase",
            backend="vector",
            replications=replications,
            groups=self.num_groups,
            protocol=self._groups[0].protocol.name,
        ) as span:
            batch = _Batch(self._groups, self._options)
            span.attrs["stepping"] = batch.stepping
            batch.run()
        with tele.span(
            "finalize", kind="phase", backend="vector", replications=replications
        ):
            results = self._finalize(batch)
            tele.counter("replications", replications, backend="vector")
            for name, value in batch.stats().items():
                if value:
                    tele.counter(name, value, backend="vector")
        return results

    # -- Finalisation --------------------------------------------------------

    def _finalize(self, batch: _Batch) -> list[SimulationResult]:
        recorder = batch.recorder
        listens = batch.listens
        packet_columns = (batch.arrival_slot, batch.departure_slot, batch.sends, listens)
        descriptions = [
            description for group in self._groups for description in group.descriptions
        ]
        protocol_names = [
            group.protocol.name for group in self._groups for _ in group.seeds
        ]
        seeds = self._seeds
        exhaust_at = batch.exhaust_at.tolist()
        if batch.dynamics_window:
            from repro.dynamics.trajectory import jammer_budget
        results: list[SimulationResult] = [None] * len(seeds)  # type: ignore[list-item]
        for group, seg in zip(self._groups, batch.segments):
            group_budget = (
                jammer_budget(group.jammer) if batch.dynamics_window else None
            )
            for index in range(seg.rows.start, seg.rows.stop):
                slots = int(batch.num_slots[index])
                outcome = recorder.outcome[:slots, index]
                arrivals = recorder.arrivals[:slots, index]
                jammed = outcome == 3
                active_before, active_after = _backlogs(arrivals, outcome)
                was_active = active_before > 0
                jammed_active = jammed & was_active

                collector = MetricsCollector()
                collector.num_slots = slots
                collector.num_arrivals = int(arrivals.sum())
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

                count = int(batch.injected[index])
                columns = [
                    values[index, :count].tolist() if values is not None else [0] * count
                    for values in packet_columns
                ]
                packets = [
                    PacketRecord(packet_id, arrived, None if left < 0 else left, sent, heard)
                    for packet_id, (arrived, left, sent, heard) in enumerate(zip(*columns))
                ]

                potential = None
                if batch.collect_potential:
                    potential = self._materialize_potential(
                        batch, index, slots, active_after
                    )
                dynamics = None
                if batch.dynamics_window:
                    dynamics = self._materialize_dynamics(
                        batch, index, slots, active_after, group_budget
                    )

                results[self._order[index]] = SimulationResult(
                    config_description=descriptions[index],
                    protocol_name=protocol_names[index],
                    seed=seeds[index],
                    num_slots=slots,
                    # A Python bool: numpy's would change the result's bytes.
                    drained=bool(batch.backlog[index] == 0)
                    and slots >= exhaust_at[index],
                    collector=collector,
                    packets=packets,
                    potential=potential,
                    dynamics=dynamics,
                )
        return results

    def _materialize_dynamics(
        self,
        batch: _Batch,
        index: int,
        slots: int,
        active_after: np.ndarray,
        budget: float | None,
    ):
        """Expand one row's recorder columns + window gauges into a trajectory.

        Counts come from cumulative sums of the per-slot recorder columns at
        each window end, the backlog from the derived ``active_after``; the
        gauges are the row's own samples at its window ends
        (:meth:`_Batch.sample_windows`) — so every snapshot matches what the
        scalar accumulator would have sampled at that row's boundaries.  The
        snapshots then flow through the same
        :func:`~repro.dynamics.trajectory.build_trajectory` the scalar
        engine uses, making equal snapshots bit-identical trajectories.
        """
        from repro.dynamics.trajectory import WindowSnapshot, build_trajectory

        recorder = batch.recorder
        window = batch.dynamics_window
        starts = np.arange(0, slots, window)
        ends = np.minimum(starts + window, slots)

        def through_window(values: np.ndarray) -> list[int]:
            """Each window's cumulative total of a per-slot column."""
            return np.add.reduceat(values, starts, dtype=np.int64).cumsum().tolist()

        outcome = recorder.outcome[:slots, index]
        backlogs = active_after[ends - 1].tolist()
        # A windowless kernel's window sums stay at their initial 0.0.
        probability_sum, window_sum, listens = (
            gauge[: starts.size, index].tolist() for gauge in batch.gauges
        )
        snapshots = [
            WindowSnapshot(*fields)
            for fields in zip(  # in WindowSnapshot's field order
                ends.tolist(),
                through_window(recorder.arrivals[:slots, index]),
                through_window(outcome == 1),
                through_window(outcome == 2),
                through_window(outcome == 3),
                through_window(recorder.num_senders[:slots, index]),
                listens,
                backlogs,
                window_sum,
                backlogs if batch.windowed else [0] * starts.size,
                probability_sum,
            )
        ]
        return build_trajectory(window, slots, snapshots, budget=budget)

    def _materialize_potential(
        self,
        batch: _Batch,
        index: int,
        slots: int,
        active_after: np.ndarray,
    ) -> PotentialTracker:
        """Expand one row's Φ columns, carried over its idle slots, into a
        scalar tracker."""
        recorder = batch.recorder
        windowed = batch.windowed
        tracker = PotentialTracker(batch.coefficients)
        h_col, l_col, inverse_col, phi_col = (
            _carried(getattr(recorder, name)[:slots, index]).tolist()
            for name in _POTENTIAL_TERMS
        )
        tracker.samples = [
            PotentialSample(
                slot=s,
                num_packets=int(active_after[s]) if windowed else 0,
                h_term=h_col[s],
                l_term=l_col[s],
                contention=inverse_col[s],
                potential=phi_col[s],
            )
            for s in range(slots)
        ]
        return tracker
