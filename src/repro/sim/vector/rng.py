"""Per-replication Philox streams for the vector engine.

Each replication in a batch owns two counter-based Philox streams — one for
its packets' coins, one for its adversary's coins — keyed off the
replication's own master seed via the same SHA-256 derivation the scalar
engine uses (:func:`repro.sim.rng.derive_seed`).  Keying per replication
keeps replications statistically independent and makes a batch's output a
deterministic function of its seed list: running the same batch twice is
bit-identical.

The scalar engine hands every *packet* its own ``random.Random``; the vector
engine draws from the per-replication streams instead, in one of two coin
orders.  Either produces coin sequences different from (but identically
distributed to) the scalar engine's, which is exactly why vector results
match scalar results statistically rather than bit-for-bit.

* **Access-driven order** (:class:`RowCoins`; LOW-SENSING, decoupled LSB,
  BEB, polynomial, fixed-probability/ALOHA): a replication's packet stream
  is consumed only by that replication's own events, slot by slot and in
  packet-id order within a slot — one coin per arriving packet (its first
  gap), then per accessing packet a send-vs-listen coin (listening kernels
  only) and the coin of its next gap.  Philox streams are chunk-invariant
  (``random(a)`` then ``random(b)`` equals ``random(a + b)``), so how the
  buffer is refilled never matters, and a result is a function of its
  (spec, seed) alone.
* **Dense order** (:class:`CoinBlocks`; Sawtooth and full-sensing MW, whose
  state advances every slot): one ``(replications × packets)`` coin matrix
  per slot, drawn in blocks of slots.  The block size is a deterministic
  function of the group's geometry, so the coin consumed at ``(replication,
  slot, packet)`` depends on the group a replication runs in, but never on
  timing or chunk boundaries chosen at run time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.sim.rng import derive_seed

#: Upper bound on the per-block coin buffer, in float64 entries (~16 MiB).
_MAX_BLOCK_ENTRIES = 2_000_000

#: Uniforms buffered per row in the access-driven order (grown on demand).
_ROW_COIN_WIDTH = 4096


def block_slots(num_replications: int, capacity: int) -> int:
    """Slots of packet coins to buffer per refill (deterministic in shape)."""
    per_slot = max(1, num_replications * max(1, capacity))
    return max(1, min(256, _MAX_BLOCK_ENTRIES // per_slot))


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
    probabilities = np.atleast_1d(np.minimum(probabilities, 1.0))
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

        The view *shares* the underlying generator objects, which is what
        mega-batched execution relies on: a segment consuming coins through
        its view advances exactly the same generators, in exactly the same
        per-replication order, as a standalone batch of that segment would —
        the property that keeps mega-batched results bit-identical to
        per-group vector runs.
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
        self._origin = np.arange(rows, dtype=np.int64) * _ROW_COIN_WIDTH
        self._next = np.zeros(rows, dtype=np.int64)
        self._end = np.zeros(rows, dtype=np.int64)

    def take(self, rows: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """One uniform per entry of ``rows`` (ascending; ``counts`` its bincount)."""
        for row in np.flatnonzero(self._next + counts > self._end).tolist():
            self._refill(row, int(counts[row]))
        # The k-th entry of row r reads the row's next unread uniform plus k.
        first = np.cumsum(counts) - counts
        start = self._origin + self._next - first
        self._next += counts
        return self._buffer.reshape(-1)[start[rows] + np.arange(rows.size)]

    def _refill(self, row: int, needed: int) -> None:
        unread = self._buffer[row, self._next[row] : self._end[row]].copy()
        width = self._buffer.shape[1]
        if needed > width:
            width = max(needed, 2 * width)
            grown = np.empty((len(self._generators), width))
            grown[:, : self._buffer.shape[1]] = self._buffer
            self._buffer = grown
            self._origin = np.arange(len(self._generators), dtype=np.int64) * width
        self._buffer[row, : unread.size] = unread
        self._buffer[row, unread.size :] = self._generators[row].random(
            width - unread.size
        )
        self._next[row] = 0
        self._end[row] = width


class CoinBlocks:
    """Blocked ``(R, P)`` per-slot uniforms for the dense kernels.

    ``coins(slot)`` returns the coin matrix for ``slot``; consecutive slots
    read consecutive rows of a pre-drawn ``(R, block, P)`` buffer.  When the
    packet capacity grows, the remainder of the current block is discarded
    and a fresh block is drawn at the new width — deterministic, because
    capacity growth itself is a deterministic function of the seeds.
    """

    def __init__(self, streams: "VectorStreams | StreamView", capacity: int) -> None:
        self._streams = streams
        self._capacity = max(1, capacity)
        self._block: np.ndarray | None = None
        self._block_start = 0
        self._block_len = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def resize(self, capacity: int) -> None:
        """Grow the packet dimension; discards the rest of the current block."""
        if capacity <= self._capacity:
            return
        self._capacity = capacity
        self._block = None

    def coins(self, slot: int, running: np.ndarray | None = None) -> np.ndarray:
        """The ``(R, capacity)`` uniform coin matrix for ``slot``.

        ``running`` masks replications whose execution already ended; their
        streams stop being consumed (and their rows hold stale coins no one
        reads).  Because finish times are a deterministic function of the
        seeds, skipping them keeps runs bit-reproducible.
        """
        if self._block is None or not (
            self._block_start <= slot < self._block_start + self._block_len
        ):
            self._refill(slot, running)
        assert self._block is not None
        return self._block[:, slot - self._block_start, :]

    def _refill(self, start_slot: int, running: np.ndarray | None) -> None:
        replications = len(self._streams)
        block = block_slots(replications, self._capacity)
        if self._block is None or self._block.shape[2] != self._capacity:
            self._block = np.empty(
                (replications, block, self._capacity), dtype=np.float64
            )
        for index, generator in enumerate(self._streams.packet_generators):
            if running is None or running[index]:
                self._block[index] = generator.random((block, self._capacity))
        self._block_start = start_slot
        self._block_len = block
