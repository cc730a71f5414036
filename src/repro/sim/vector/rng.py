"""Per-replication Philox streams for the vector engine, and its coin order.

Each replication in a batch owns two counter-based Philox streams — one for
its packets' coins, one for its adversary's coins — keyed off the
replication's own master seed via the same SHA-256 derivation the scalar
engine uses (:func:`repro.sim.rng.derive_seed`).  Keying per replication
keeps replications statistically independent.

The scalar engine hands every *packet* its own ``random.Random``; the vector
engine draws from the per-replication streams instead.  Its coin sequences
therefore differ from (but are identically distributed to) the scalar
engine's, which is exactly why vector results match scalar results
statistically rather than bit-for-bit.

There is one coin order (:class:`RowCoins`): a replication's packet stream
is consumed only by that replication's own events, slot by slot and in
packet-id order within a slot.

* The kernels that access rarely (LOW-SENSING, decoupled LSB, BEB,
  polynomial, fixed-probability/ALOHA) take one coin per arriving packet
  (its first gap), then per accessing packet a send-vs-listen coin
  (listening kernels only) and the coin of its next gap.
* The every-slot kernels (Sawtooth and full-sensing MW, whose state
  advances every slot) access every slot a packet is active and draw no
  gaps: one coin, the send coin, per active packet per slot.

Philox streams are chunk-invariant (``random(a)`` then ``random(b)`` equals
``random(a + b)``), so how the buffer is refilled never matters, and every
vector result is a function of its (spec, seed) alone: bit-identical run
alone, in any group, or inside any mega-batch.  :data:`RESULT_LAYOUT` names
this coin order in the result cache and the campaign store.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.sim.rng import derive_seed

#: The result layout of every vectorized run: the result cache and the
#: campaign store file vector results under it, apart from the scalar
#: engine's layout.  The number versions the coin order and the result
#: format together.  Bump it when either changes, and never reuse a layout a
#: store may hold (older stores hold ``vector:<64-hex batch signature>``,
#: ``vector:3`` rows), so results drawn under another order or pickled in
#: another format are recomputed rather than served.
RESULT_LAYOUT = "vector:4"

#: Uniforms buffered per row (grown on demand).
_ROW_COIN_WIDTH = 4096


def geometric_gaps(
    uniforms: np.ndarray, probabilities: np.ndarray | float, horizon: int
) -> np.ndarray:
    """Geometric(p) trial counts (support 1, 2, ...) by inversion.

    ``1 + floor(log(1 − u) / log(1 − p))`` for a uniform ``u`` in [0, 1)
    has ``P(gap > k) = (1 − p)^k``.  Gaps are capped at ``horizon``, the
    "no access within the run" gap: ``p = 1`` gives 1 (``log1p(-1)`` is
    −inf), and a ``p`` so small that the ratio overflows — or is 0/0 at
    ``p = 0`` — gives inf or nan, which ``fmin`` clips before the int64
    cast.  Probabilities are clamped at 1 against rounding above it.
    """
    probabilities = np.minimum(probabilities, 1.0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trials = np.log1p(-uniforms) / np.log1p(-probabilities)
    np.fmin(trials, horizon - 1, out=trials)
    gaps = trials.astype(np.int64)
    gaps += 1
    return gaps


class VectorStreams:
    """The per-replication random streams of one vector batch."""

    def __init__(self, seeds: Sequence[int]) -> None:
        self.seeds = [int(seed) for seed in seeds]
        self.packet_generators = [
            np.random.Generator(np.random.Philox(key=derive_seed(seed, "vector", "packets")))
            for seed in self.seeds
        ]
        self.adversary_generators = [
            np.random.Generator(
                np.random.Philox(key=derive_seed(seed, "vector", "adversary"))
            )
            for seed in self.seeds
        ]

    def __len__(self) -> int:
        return len(self.seeds)

    def slice(self, start: int, stop: int) -> "StreamView":
        """A view of the replication range ``[start, stop)``.

        The view *shares* the underlying generator objects, so a
        mega-batch segment's arrival kernel advances exactly the generators
        of its own rows, as a standalone batch of that group would.
        """
        return StreamView(
            self.seeds[start:stop],
            self.packet_generators[start:stop],
            self.adversary_generators[start:stop],
        )


class StreamView:
    """A contiguous slice of a :class:`VectorStreams` (shared generators)."""

    __slots__ = ("seeds", "packet_generators", "adversary_generators")

    def __init__(
        self,
        seeds: list[int],
        packet_generators: list[np.random.Generator],
        adversary_generators: list[np.random.Generator],
    ) -> None:
        self.seeds = seeds
        self.packet_generators = packet_generators
        self.adversary_generators = adversary_generators

    def __len__(self) -> int:
        return len(self.seeds)


class RowCoins:
    """Per-row uniforms consumed event by event, in each row's stream order.

    :meth:`take` hands out the next ``counts[r]`` uniforms of every row
    ``r``.  A row's uniforms are pre-drawn from its own generator into one
    row of a buffer, refilled for that row alone when it runs dry; since
    Philox streams are chunk-invariant, the values a row consumes are
    exactly its stream's prefix whatever the refill sizes, so they depend
    on the row's seed and its own events only, never on its batch.
    """

    def __init__(self, generators: Sequence[np.random.Generator]) -> None:
        self._generators = list(generators)
        rows = len(self._generators)
        self._buffer = np.empty((rows, _ROW_COIN_WIDTH))
        self._flat = self._buffer.reshape(-1)
        self._origin = np.arange(rows, dtype=np.int64) * _ROW_COIN_WIDTH
        self._next = np.zeros(rows, dtype=np.int64)
        self._end = np.zeros(rows, dtype=np.int64)

    def take(self, rows: np.ndarray, counts: np.ndarray, per_entry: int = 1) -> Any:
        """The next ``per_entry`` (1 or 2) uniforms of every entry of ``rows``
        (ascending; ``counts`` its bincount): one array, or two, every
        entry's first and every entry's second."""
        needed = counts if per_entry == 1 else per_entry * counts
        after = self._next + needed
        short = (after > self._end).nonzero()[0]
        if short.size:
            for row in short.tolist():
                self._refill(row, int(needed[row]))
            after = self._next + needed
        # Row r's j-th entry starts per_entry·j past the row's next unread
        # one, which is ``after`` less the row's entries and those before it.
        start = self._origin + after - needed.cumsum()
        self._next = after
        index = start[rows] + np.arange(0, per_entry * rows.size, per_entry)
        flat = self._flat
        return flat[index] if per_entry == 1 else (flat[index], flat[index + 1])

    def _refill(self, row: int, needed: int) -> None:
        unread = self._buffer[row, self._next[row] : self._end[row]].copy()
        width = self._buffer.shape[1]
        if needed > width:
            width = max(needed, 2 * width)
            grown = np.empty((len(self._generators), width))
            grown[:, : self._buffer.shape[1]] = self._buffer
            self._buffer = grown
            self._flat = grown.reshape(-1)
            self._origin = np.arange(len(self._generators), dtype=np.int64) * width
        self._buffer[row, : unread.size] = unread
        self._buffer[row, unread.size :] = self._generators[row].random(
            width - unread.size
        )
        self._next[row] = 0
        self._end[row] = width
