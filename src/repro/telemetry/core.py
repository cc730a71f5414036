"""The telemetry session: spans, counters, events, and progress.

One :class:`TelemetrySession` is active per process at a time (set with
:func:`activate`/:func:`deactivate` or the :func:`activated` context
manager); instrumented code asks :func:`current` for it.  When nothing is
active, :func:`current` returns the shared :data:`NULL_SESSION`, whose
methods are empty no-ops — the disabled path costs one module-global read
plus an attribute check, which is what lets instrumentation live inside
the execution layers without a measurable tax (the enabled-vs-disabled
ratio is gated in ``benchmarks/bench_telemetry_overhead.py``).

The hard contract of the whole subsystem is that telemetry is **RNG-inert
and result-inert**: a session only ever *reads* monotonic clocks and
already-computed state, never draws randomness from the simulation's
streams, and never feeds anything back into a result.  Store fingerprints
with telemetry on and off are bit-identical on every backend (enforced by
tests in ``tests/test_telemetry.py``).  The correlation id is drawn from
``uuid4`` (OS entropy), which touches neither ``random`` nor numpy
generators.

Event records are flat JSON-friendly dicts with a shared envelope::

    {"ts": 0.0123, "run": "<correlation id>", "ev": "<kind>", ...}

``ts`` is seconds since the session opened, measured on the monotonic
clock (wall-clock anchors live in the ``session_start`` event).  Kinds:

``session_start`` / ``session_end``
    Session lifecycle; ``session_start`` carries the wall-clock time and
    pid, ``session_end`` the total elapsed seconds.
``span``
    One timed region: ``name``, ``dur`` (seconds) and free-form ``attrs``;
    its ``ts`` is the region's end.
    The ``kind`` attr partitions spans for summarisation: ``root`` spans
    bound a whole run's wall clock, ``phase`` spans (build / simulate /
    finalize / commit) decompose it, ``unit`` spans mark campaign
    checkpoint units (excluded from phase coverage, since the phases
    inside them already count).
``counter``
    A named numeric accumulation (``name``, ``value``, ``attrs``) —
    hot-loop totals sampled *outside* the per-slot path.
``event``
    A named point event (``name``, ``attrs``) — cache lookups, vector
    fallbacks, mega-batch composition.
``progress``
    Completion state (``label``, ``done``, ``total``, ``attrs``) consumed
    live by the stderr progress sink and ignored by the summarizer.
"""

from __future__ import annotations

import datetime
import os
import time
import uuid
from typing import Any, Iterator, Sequence


class Sink:
    """Where telemetry events go.  Subclasses override :meth:`emit`."""

    def emit(self, record: dict[str, Any]) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (no-op by default)."""


class _NullSpan:
    """The shared no-op span (disabled path); safe to re-enter."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Span:
    """A timed region; use as a context manager.

    The duration is measured on the monotonic clock and emitted as one
    ``span`` event when the region exits (no begin event — half the
    volume, and the summarizer only needs durations).  Spans are emitted
    even when the region raises, so a failing sweep still accounts for
    the time it burned.
    """

    __slots__ = ("_session", "name", "attrs", "_started")

    def __init__(self, session: "TelemetrySession", name: str, attrs: dict[str, Any]):
        self._session = session
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        self._started = time.monotonic()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        ended = time.monotonic()
        self._session._emit_span(self.name, ended - self._started, self.attrs, ended)
        return False


class NullSession:
    """The disabled session: every operation is an empty no-op.

    ``enabled`` is ``False`` so hot paths can skip even argument
    construction with ``if tele.enabled:`` guards where that matters.
    """

    enabled = False
    run_id = None

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def span_record(
        self, name: str, duration: float, ended: float | None = None, **attrs: Any
    ) -> None:
        pass

    def counter(self, name: str, value: float, **attrs: Any) -> None:
        pass

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def progress(self, label: str, done: int, total: int, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass


#: The process-wide disabled session (shared; never mutated).
NULL_SESSION = NullSession()

_CURRENT: "TelemetrySession | NullSession" = NULL_SESSION


def current() -> "TelemetrySession | NullSession":
    """The active session, or :data:`NULL_SESSION` when telemetry is off."""
    return _CURRENT


def activate(session: "TelemetrySession") -> None:
    """Make ``session`` the process's active telemetry session."""
    global _CURRENT
    _CURRENT = session


def deactivate() -> None:
    """Restore the disabled no-op session."""
    global _CURRENT
    _CURRENT = NULL_SESSION


class activated:
    """Context manager: activate ``session`` for a block, then close it.

    ``activated(None)`` is a no-op block, which lets CLI code write one
    ``with`` statement whether or not the user asked for telemetry.
    """

    def __init__(self, session: "TelemetrySession | None") -> None:
        self._session = session

    def __enter__(self) -> "TelemetrySession | NullSession":
        if self._session is not None:
            activate(self._session)
        return current()

    def __exit__(self, *exc_info: object) -> bool:
        if self._session is not None:
            deactivate()
            self._session.close()
        return False


class TelemetrySession:
    """An enabled telemetry session fanning events out to its sinks.

    Parameters
    ----------
    sinks:
        Where events go; see :mod:`repro.telemetry.sinks`.  A session
        with no sinks is legal (events are dropped) but pointless.
    run_id:
        Correlation id stamped on every event; defaults to 12 hex chars
        of OS entropy.  All events written by one session — across
        subsystems and sinks — share it, which is what lets a summarizer
        separate interleaved runs in one JSONL file.
    """

    enabled = True

    def __init__(
        self, sinks: Sequence[Sink] = (), run_id: str | None = None
    ) -> None:
        self._sinks = list(sinks)
        self.run_id = run_id if run_id is not None else uuid.uuid4().hex[:12]
        self._t0 = time.monotonic()
        self._closed = False
        self._emit(
            {
                "ev": "session_start",
                "wall_time": datetime.datetime.now(datetime.timezone.utc).isoformat(
                    timespec="milliseconds"
                ),
                "pid": os.getpid(),
            }
        )

    # -- Emission -----------------------------------------------------------

    def clock(self, monotonic: float) -> float:
        """A monotonic time on the session clock, as events stamp ``ts``."""
        return round(monotonic - self._t0, 6)

    def _emit(self, record: dict[str, Any]) -> None:
        record.setdefault("ts", self.clock(time.monotonic()))
        record["run"] = self.run_id
        for sink in self._sinks:
            sink.emit(record)

    def _emit_span(
        self, name: str, duration: float, attrs: dict[str, Any], ended: float
    ) -> None:
        record = {"ev": "span", "name": name, "dur": round(duration, 6), "attrs": attrs}
        record["ts"] = self.clock(ended)
        self._emit(record)

    # -- Public API ---------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """A context manager timing one region (see :class:`Span`)."""
        return Span(self, name, attrs)

    def span_record(
        self, name: str, duration: float, ended: float | None = None, **attrs: Any
    ) -> None:
        """Record an externally-timed span (e.g. measured in a pool worker)
        that ended at monotonic time ``ended`` (default: now)."""
        if ended is None:
            ended = time.monotonic()
        self._emit_span(name, float(duration), attrs, ended)

    def counter(self, name: str, value: float, **attrs: Any) -> None:
        """Accumulate ``value`` under ``name`` (summed by the summarizer)."""
        self._emit({"ev": "counter", "name": name, "value": value, "attrs": attrs})

    def event(self, name: str, **attrs: Any) -> None:
        """A named point event (fallbacks, cache lookups, compositions…)."""
        self._emit({"ev": "event", "name": name, "attrs": attrs})

    def progress(self, label: str, done: int, total: int, **attrs: Any) -> None:
        """Completion state for live progress sinks (``done`` of ``total``)."""
        self._emit(
            {
                "ev": "progress",
                "label": label,
                "done": int(done),
                "total": int(total),
                "attrs": attrs,
            }
        )

    def close(self) -> None:
        """Emit ``session_end`` and close every sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._emit(
            {
                "ev": "session_end",
                "elapsed_seconds": round(time.monotonic() - self._t0, 6),
            }
        )
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "TelemetrySession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def sinks(self) -> Iterator[Sink]:
        return iter(self._sinks)
