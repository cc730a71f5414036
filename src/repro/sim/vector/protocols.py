"""Batched protocol kernels.

A kernel holds the protocol state of *every* packet of *every* replication
in flat per-cell arrays (``replications × packets``, C order).  A packet's
state changes only when it accesses the channel, so the engine schedules
accesses on one calendar (see :mod:`repro.sim.vector.engine`) and every
kernel exposes the same three calls at given cells:
``access_probability``, ``send_share`` (``P(send | access)``, ``None`` for
the send-only kernels, whose every access is a send), and
``on_access(cells, rows, heard)``, which updates every accessor of a slot,
winners included (nothing reads a departed cell again), and returns their
next access probabilities.  ``heard`` is each accessor's copy of its
replication's outcome code — 0 empty, 1 success, 2 collision, 3 jammed —
so a listening kernel reads silence as ``heard == 0`` and noise as
``heard >= 2``; the send-only kernels ignore it.

* LOW-SENSING BACKOFF, its decoupled A1 variant, binary exponential,
  polynomial, and fixed-probability/ALOHA access rarely: between two
  accesses a packet repeats one trial per slot at a fixed access
  probability, and the engine draws the gap to its next access as
  Geometric(p);
* Sawtooth and full-sensing MW set ``every_slot``: their state advances
  every slot a packet is active — Sawtooth's clock ticks while a packet
  sleeps, and MW listens every slot — so every active packet accesses every
  slot (``access_probability`` is 1).  Sawtooth sends with probability
  ``1/w`` and otherwise sleeps; MW sends with probability ``p`` and
  otherwise listens.

Cells are addressed by flat indices into the state arrays, together with
each cell's row, which selects per-row parameters; ``sending_probabilities``
and ``window_matrix`` hand out ``(replications × packets)`` views.

The scalar LOW-SENSING state draws two coins per slot (access, then
send-given-access); its kernel draws the slots between accesses as one
gap and then one coin per access for the send-vs-listen split — the same
joint distribution from different coins.  Vector results are therefore
statistically (not bitwise) equivalent to scalar results, which is already
the vector engine's contract.

Every kernel is built from a list of ``(protocol, replications)`` pairs so
that a mega-batch can stack configurations that share a kernel family but
differ in parameters: parameters are promoted to per-row columns.  All
per-cell state updates are elementwise, so the values a row's cells take
are bit-identical whether the row runs in its own batch or inside a larger
stacked batch — the property mega-batching relies on.
"""

from __future__ import annotations

import abc
import functools
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.protocols.base import BackoffProtocol
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.protocols.fixed_probability import FixedProbabilityProtocol, SlottedAloha
from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
from repro.protocols.polynomial_backoff import PolynomialBackoff
from repro.protocols.sawtooth import SawtoothBackoff

#: One kernel-family slice of a (mega-)batch: a protocol instance and the
#: number of consecutive replication rows it governs.
ProtocolRows = Sequence[tuple[BackoffProtocol, int]]


def _rows(pairs: ProtocolRows) -> int:
    return sum(count for _, count in pairs)


def _param_column(
    pairs: ProtocolRows, getter: Callable[[Any], float], none_as: float | None = None
) -> float | np.ndarray:
    """Promote a per-protocol parameter to a per-row column.

    Returns a plain float when the parameter is uniform across all rows (the
    single-group case, and the common mega case) so the kernels keep their
    scalar fast paths; otherwise a read-only ``(R, 1)`` float column that
    broadcasts against the ``(R, P)`` state matrices.  Elementwise numpy
    arithmetic yields bit-identical cell values either way.
    """
    values = []
    for protocol, _ in pairs:
        value = getter(protocol)
        values.append(none_as if value is None else float(value))
    if all(value == values[0] for value in values):
        return values[0]
    column = np.repeat(
        np.asarray(values, dtype=np.float64), [count for _, count in pairs]
    )[:, None]
    column.setflags(write=False)
    return column


def _at(param: float | np.ndarray, rows: np.ndarray) -> float | np.ndarray:
    """The parameter's value for each listed row (scalar or 1-D)."""
    if isinstance(param, np.ndarray):
        return param[rows, 0]
    return param


class VectorProtocolKernel(abc.ABC):
    """Lockstep protocol state for one batch, changed only by accesses."""

    #: True when packets may listen without sending (the engine then
    #: maintains per-packet listen counters).
    listens = False

    #: True for kernels whose state advances every slot a packet is active:
    #: every active packet then accesses every slot, and the engine draws
    #: no gaps for it.
    every_slot = False

    def __init__(self, replications: int) -> None:
        self.replications = replications
        self.capacity = 0

    def _widened(
        self, state: np.ndarray | None, capacity: int, fill: Any
    ) -> np.ndarray:
        """A flat state array of ``capacity`` cells per row: ``state``'s
        cells (none when it is ``None``), then ``fill`` (a scalar or a
        per-row column) in every new cell of each row."""
        width = 0 if state is None else self.capacity
        dtype = np.result_type(fill) if state is None else state.dtype
        grown = np.empty((self.replications, capacity), dtype=dtype)
        if width:
            grown[:, :width] = self._matrix(state)
        grown[:, width:] = fill
        return grown.reshape(-1)

    def _matrix(self, state: np.ndarray) -> np.ndarray:
        """A flat state array as its ``(replications × capacity)`` view."""
        return state.reshape(self.replications, self.capacity)

    @abc.abstractmethod
    def grow(self, capacity: int) -> None:
        """Extend the packet dimension to ``capacity`` columns."""

    @abc.abstractmethod
    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        """Initialise state for freshly injected packets at ``cells``."""

    @abc.abstractmethod
    def sending_probabilities(self) -> np.ndarray | float:
        """Per-packet sending probabilities, for contention accounting.

        Matches the scalar states' ``sending_probability()`` exactly; a
        scalar or per-row column broadcasts against the packet matrix.
        """

    def window_matrix(self) -> np.ndarray | None:
        """Per-packet backoff windows, ``None`` for windowless protocols.

        Mirrors the scalar states' optional ``window`` attribute, which
        feeds the potential tracker; kernels without a window (fixed
        probability, multiplicative weights) return ``None`` and the
        potential degrades to empty samples, as on the scalar engine.
        """
        return None

    @abc.abstractmethod
    def access_probability(
        self, cells: np.ndarray, rows: np.ndarray
    ) -> np.ndarray | float:
        """Per-slot probability that each packet at ``cells`` accesses."""

    def send_share(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray | None:
        """``P(send | access)`` at ``cells``; ``None`` when every access sends."""
        return None

    def on_access(
        self, cells: np.ndarray, rows: np.ndarray, heard: np.ndarray
    ) -> np.ndarray | float:
        """Feedback update for every accessor at ``cells``, winners included.

        ``heard`` is the outcome code of each accessor's replication this
        slot: 0 empty, 1 success (its own or another packet's), 2
        collision, 3 jammed.  Returns the accessors' next access
        probabilities, exactly what :meth:`access_probability` reads after
        the update.
        """
        return self.access_probability(cells, rows)


# ---------------------------------------------------------------------------
# Kernels that access rarely
# ---------------------------------------------------------------------------


class FixedProbabilityKernel(VectorProtocolKernel):
    """Constant sending probability; feedback never changes it."""

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs))
        self._probability = _param_column(pairs, lambda p: p.probability)
        self.grow(capacity)

    def grow(self, capacity: int) -> None:
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        return None

    def sending_probabilities(self) -> float | np.ndarray:
        return self._probability

    def access_probability(self, cells: np.ndarray, rows: np.ndarray):
        return _at(self._probability, rows)


class BinaryExponentialKernel(VectorProtocolKernel):
    """Window per packet; doubles (up to a cap) on every unsuccessful send."""

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs))
        self._initial_window = _param_column(pairs, lambda p: p.initial_window)
        self._backoff_factor = _param_column(pairs, lambda p: p.backoff_factor)
        # ``None`` (uncapped) promotes to +inf: min(w, inf) == w bitwise.
        self._max_window = _param_column(
            pairs, lambda p: p.max_window, none_as=np.inf
        )
        self._window = self._inverse = None
        self.grow(capacity)

    def grow(self, capacity: int) -> None:
        self._window = self._widened(self._window, capacity, self._initial_window)
        inverse = 1.0 / self._initial_window
        self._inverse = self._widened(self._inverse, capacity, inverse)
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        initial = _at(self._initial_window, rows)
        self._window[cells] = initial
        self._inverse[cells] = 1.0 / initial

    def sending_probabilities(self) -> np.ndarray:
        return self._matrix(self._inverse)

    def window_matrix(self) -> np.ndarray:
        return self._matrix(self._window)

    def access_probability(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._inverse[cells]

    def on_access(self, cells, rows, heard) -> np.ndarray:
        # Every access is a send, and every sender but the winner (whose
        # update nothing reads) lost its slot.
        grown = self._window[cells] * _at(self._backoff_factor, rows)
        cap = self._max_window
        if isinstance(cap, np.ndarray):
            grown = np.minimum(grown, _at(cap, rows))
        elif cap != np.inf:
            np.minimum(grown, cap, out=grown)
        self._window[cells] = grown
        inverse = 1.0 / grown
        self._inverse[cells] = inverse
        return inverse


class PolynomialKernel(VectorProtocolKernel):
    """Collision count per packet; window is ``w0 * (collisions+1)**degree``."""

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs))
        self._initial_window = _param_column(pairs, lambda p: p.initial_window)
        self._degree = _param_column(pairs, lambda p: p.degree)
        self._collisions = self._inverse = None
        self.grow(capacity)

    def grow(self, capacity: int) -> None:
        self._collisions = self._widened(self._collisions, capacity, 0)
        inverse = 1.0 / self._initial_window
        self._inverse = self._widened(self._inverse, capacity, inverse)
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        self._collisions[cells] = 0
        self._inverse[cells] = 1.0 / _at(self._initial_window, rows)

    def sending_probabilities(self) -> np.ndarray:
        return self._matrix(self._inverse)

    def window_matrix(self) -> np.ndarray:
        # The scalar state computes ``initial * (collisions + 1) ** degree``
        # on demand; reproduce the same float operations.
        return (
            self._initial_window
            * (self._matrix(self._collisions) + 1.0) ** self._degree
        )

    def access_probability(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._inverse[cells]

    def on_access(self, cells, rows, heard) -> np.ndarray:
        # Every access is a send, and every sender but the winner collided.
        bumped = self._collisions[cells] + 1
        self._collisions[cells] = bumped
        inverse = 1.0 / (
            _at(self._initial_window, rows) * (bumped + 1.0) ** _at(self._degree, rows)
        )
        self._inverse[cells] = inverse
        return inverse


class LowSensingKernel(VectorProtocolKernel):
    """LOW-SENSING BACKOFF: window per packet, updated from ternary feedback.

    The access probability, the send share, and the unconditional send
    probability involve logarithms, so they are kept per cell and
    recomputed only where the window changes — the same optimisation
    :class:`LowSensingPacketState` applies per packet — and so is ``ln w``,
    which the next window update reads.  ``decoupled=True`` gives the A1
    ablation variant, whose send and listen coins are independent: it sends
    with probability ``s`` and otherwise listens with probability ``a``, so
    it accesses with probability ``s + (1 − s)·a``.
    """

    listens = True

    def __init__(
        self, pairs: ProtocolRows, capacity: int, *, decoupled: bool = False
    ) -> None:
        super().__init__(_rows(pairs))
        self._decoupled = decoupled
        self._c = _param_column(pairs, lambda p: p.params.c)
        self._w_min = _param_column(pairs, lambda p: p.params.w_min)
        self._window = self._log_window = self._send = self._access = None
        self._share = None
        self.grow(capacity)

    def _probabilities(
        self, window: Any, log_window: Any, c: float | np.ndarray
    ) -> tuple[Any, Any, Any]:
        """(send, access, send share) for each window, as the scalar state."""
        scaled = c * log_window**3
        access = np.minimum(1.0, scaled / window)
        share = np.minimum(1.0, 1.0 / scaled)
        send = access * share
        if self._decoupled:
            access = send + (1.0 - send) * access
            share = send / access
        return send, access, share

    def _store(self, cells: np.ndarray, window: np.ndarray, c: Any) -> np.ndarray:
        """Set the windows at ``cells``; returns their access probabilities."""
        log_window = np.log(window)
        self._window[cells] = window
        self._log_window[cells] = log_window
        send, access, share = self._probabilities(window, log_window, c)
        self._send[cells] = send
        self._access[cells] = access
        self._share[cells] = share
        return access

    def sending_probabilities(self) -> np.ndarray:
        return self._matrix(self._send)

    def window_matrix(self) -> np.ndarray:
        return self._matrix(self._window)

    def grow(self, capacity: int) -> None:
        w_min, log_w_min = self._w_min, np.log(self._w_min)
        fills = (w_min, log_w_min, *self._probabilities(w_min, log_w_min, self._c))
        for name, fill in zip(
            ("_window", "_log_window", "_send", "_access", "_share"), fills
        ):
            setattr(self, name, self._widened(getattr(self, name), capacity, fill))
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        window = np.empty(cells.size)
        window[:] = _at(self._w_min, rows)
        self._store(cells, window, _at(self._c, rows))

    def access_probability(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._access[cells]

    def send_share(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._share[cells]

    def on_access(self, cells, rows, heard) -> np.ndarray:
        # An accessor hears silence only as a listener (a sender in an idle
        # slot is impossible) and backs on; every accessor of a noisy
        # (collided or jammed) slot backs off; a success keeps the window,
        # and recomputing the probabilities of a kept window gives back the
        # stored values.
        c = _at(self._c, rows)
        window = self._window[cells]
        factor = 1.0 + 1.0 / (c * self._log_window[cells])
        window = np.where(
            heard == 0,
            np.maximum(window / factor, _at(self._w_min, rows)),
            np.where(heard >= 2, window * factor, window),
        )
        return self._store(cells, window, c)


# ---------------------------------------------------------------------------
# Kernels that access every slot
# ---------------------------------------------------------------------------


class SawtoothKernel(VectorProtocolKernel):
    """Truncated sawtooth: deterministic per-slot clock, no channel feedback.

    Sawtooth never listens, but its clock ticks on *every* slot a packet is
    active, sleeping slots included, so every active packet accesses every
    slot: it sends with probability ``1/w`` and otherwise sleeps.
    """

    every_slot = True

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs))
        # The scalar state clamps the starting phase at 2.0; the protocol
        # validates initial_window >= 2, so the clamp is a no-op kept for
        # parity with SawtoothPacketState.
        self._initial_window = _param_column(
            pairs, lambda p: max(2.0, float(p.initial_window))
        )
        self._phase = self._window = self._count = self._inverse = None
        self.grow(capacity)

    def sending_probabilities(self) -> np.ndarray:
        return self._matrix(self._inverse)

    def window_matrix(self) -> np.ndarray:
        return self._matrix(self._window)

    def grow(self, capacity: int) -> None:
        initial = self._initial_window
        self._phase = self._widened(self._phase, capacity, initial)
        self._window = self._widened(self._window, capacity, initial)
        self._count = self._widened(self._count, capacity, 0)
        self._inverse = self._widened(self._inverse, capacity, 1.0 / initial)
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        initial = _at(self._initial_window, rows)
        self._phase[cells] = initial
        self._window[cells] = initial
        self._count[cells] = 0
        self._inverse[cells] = 1.0 / initial

    def access_probability(self, cells: np.ndarray, rows: np.ndarray) -> float:
        return 1.0

    def send_share(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._inverse[cells]

    def on_access(self, cells, rows, heard) -> float:
        # Every accessor spends one slot at its current window, whatever
        # the channel carried.
        count = self._count[cells] + 1
        due = count >= self._window[cells]
        count[due] = 0
        self._count[cells] = count
        if due.any():
            cells = cells[due]
            window = self._window[cells] / 2.0
            phase = self._phase[cells]
            ended = window < 2.0
            if ended.any():
                phase = np.where(ended, phase * 2.0, phase)
                window = np.where(ended, phase, window)
                self._phase[cells] = phase
            self._window[cells] = window
            self._inverse[cells] = 1.0 / window
        return 1.0


class FullSensingMWKernel(VectorProtocolKernel):
    """Multiplicative-weights probability per packet: sends with probability
    ``p`` and otherwise listens, every slot."""

    listens = True
    every_slot = True

    def __init__(self, pairs: ProtocolRows, capacity: int) -> None:
        super().__init__(_rows(pairs))
        self._initial = _param_column(pairs, lambda p: p.initial_probability)
        self._increase = _param_column(pairs, lambda p: p.increase)
        self._decrease = _param_column(pairs, lambda p: p.decrease)
        self._p_min = _param_column(pairs, lambda p: p.p_min)
        self._p_max = _param_column(pairs, lambda p: p.p_max)
        self._probability = None
        self.grow(capacity)

    def sending_probabilities(self) -> np.ndarray:
        return self._matrix(self._probability)

    def grow(self, capacity: int) -> None:
        self._probability = self._widened(self._probability, capacity, self._initial)
        self.capacity = capacity

    def init_packets(self, cells: np.ndarray, rows: np.ndarray) -> None:
        self._probability[cells] = _at(self._initial, rows)

    def access_probability(self, cells: np.ndarray, rows: np.ndarray) -> float:
        return 1.0

    def send_share(self, cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self._probability[cells]

    def on_access(self, cells, rows, heard) -> float:
        # Silence multiplies, noise (a collision or a jam) divides, and a
        # success, the accessor's own or another packet's, keeps the
        # probability.
        probability = self._probability[cells]
        self._probability[cells] = np.where(
            heard == 0,
            np.minimum(probability * _at(self._increase, rows), _at(self._p_max, rows)),
            np.where(
                heard >= 2,
                np.maximum(
                    probability / _at(self._decrease, rows), _at(self._p_min, rows)
                ),
                probability,
            ),
        )
        return 1.0


# ---------------------------------------------------------------------------
# The kernel table and its factory
# ---------------------------------------------------------------------------


#: Exact protocol type -> its kernel, built from ``(pairs, capacity)``.  This
#: table is the registry of vectorizable protocols: the factory below and
#: :mod:`repro.sim.vector.support` both read it.  Lookup is by exact type,
#: so a subclass never inherits a kernel that may no longer describe it.
PROTOCOL_KERNELS: dict[type, Callable[..., VectorProtocolKernel]] = {
    FixedProbabilityProtocol: FixedProbabilityKernel,
    # The ALOHA alias only pins the default probability.
    SlottedAloha: FixedProbabilityKernel,
    BinaryExponentialBackoff: BinaryExponentialKernel,
    PolynomialBackoff: PolynomialKernel,
    LowSensingBackoff: LowSensingKernel,
    DecoupledLowSensingBackoff: functools.partial(LowSensingKernel, decoupled=True),
    SawtoothBackoff: SawtoothKernel,
    FullSensingMultiplicativeWeights: FullSensingMWKernel,
}


def make_protocol_row_kernel(
    pairs: ProtocolRows, capacity: int
) -> VectorProtocolKernel:
    """Build one kernel covering every ``(protocol, rows)`` pair in order.

    All pairs must share one exact protocol type (the mega-batch
    compatibility rule); parameters may differ and are promoted to per-row
    columns.
    """
    if not pairs:
        raise ValueError("at least one protocol row block is required")
    kinds = {type(protocol) for protocol, _ in pairs}
    if len(kinds) > 1:
        names = ", ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"cannot stack different protocol types: {names}")
    (kind,) = kinds
    if kind not in PROTOCOL_KERNELS:
        raise TypeError(f"no vector kernel for protocol {kind.__name__}")
    return PROTOCOL_KERNELS[kind](pairs, capacity)
