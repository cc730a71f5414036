"""``/proc``-based process resource sampling.

Two consumption patterns, both emitting through the active telemetry
session as ``resource_sample`` point events (so the existing JSONL
per-line-flush SIGKILL contract and the result-inertness guarantee apply
unchanged):

* :class:`ResourceSampler` — a daemon interval thread in the parent
  process, for wall-clock-correlated RSS/CPU/fd series;
* :func:`sample_process` — a one-shot snapshot, which pool workers take
  at job boundaries (see ``repro.exec.backends._execute_pool_job``) and
  hand back to the parent for emission, because telemetry sessions are
  process-local and workers have none.  A worker takes it, and imports
  this module, only for a job whose parent has a telemetry session on.

Reading ``/proc`` is a few microseconds and never raises out of here: on
platforms without procfs the reader degrades to ``os.times()`` for CPU
and reports what it can, so instrumented code needs no platform guards.
"""

from __future__ import annotations

import os
import threading
from typing import Any

#: Default seconds between parent-process samples.
DEFAULT_INTERVAL = 0.25


def _sysconf(name: str, fallback: int) -> int:
    try:
        value = os.sysconf(name)
        return int(value) if value > 0 else fallback
    except (AttributeError, ValueError, OSError):
        return fallback


_PAGE_SIZE = _sysconf("SC_PAGE_SIZE", 4096)
_CLOCK_TICKS = _sysconf("SC_CLK_TCK", 100)


def _read_rss_bytes(pid: int | str) -> int | None:
    """Resident set size from ``/proc/<pid>/statm`` (None off-Linux)."""
    try:
        with open(f"/proc/{pid}/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        return None


def _read_cpu_seconds(pid: int | str) -> float | None:
    """utime+stime from ``/proc/<pid>/stat``, else ``os.times()`` for self."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read().decode("ascii", errors="replace")
        # comm can contain spaces/parens; fields start after the last ')'.
        fields = stat[stat.rfind(")") + 2 :].split()
        utime, stime = int(fields[11]), int(fields[12])
        return (utime + stime) / _CLOCK_TICKS
    except (OSError, ValueError, IndexError):
        if pid in ("self", os.getpid()):
            try:
                times = os.times()
                return float(times.user + times.system)
            except OSError:
                return None
        return None


def _count_fds(pid: int | str) -> int | None:
    try:
        return len(os.listdir(f"/proc/{pid}/fd"))
    except OSError:
        return None


def sample_process(pid: int | str = "self") -> dict[str, Any]:
    """One resource snapshot of ``pid`` (keys absent when unreadable).

    The returned dict is exactly the attribute payload of a
    ``resource_sample`` telemetry event (minus ``pid``/``source``, which
    the emitter stamps), and is picklable so workers can return it.
    """
    sample: dict[str, Any] = {}
    rss = _read_rss_bytes(pid)
    if rss is not None:
        sample["rss_bytes"] = rss
    cpu = _read_cpu_seconds(pid)
    if cpu is not None:
        sample["cpu_seconds"] = round(cpu, 4)
    fds = _count_fds(pid)
    if fds is not None:
        sample["fds"] = fds
    return sample


class ResourceSampler:
    """A daemon thread sampling the current process every ``interval``.

    Use as a context manager around the instrumented region::

        with activated(session), ResourceSampler(session, interval=0.25):
            ...

    Emission goes through ``session.event("resource_sample", ...)``, so
    with a :class:`~repro.telemetry.sinks.JsonlSink` attached every
    sample is flushed line-by-line — a SIGKILL mid-run leaves at most one
    truncated final line, which the reader already tolerates.  One sample
    is always taken synchronously on entry and one on clean exit, so even
    a run shorter than the interval records its bounds.
    """

    def __init__(self, session: Any, interval: float = DEFAULT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError("sampling interval must be positive")
        self._session = session
        self.interval = interval
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _emit_sample(self) -> None:
        try:
            sample = sample_process()
            if sample:
                self._session.event(
                    "resource_sample", pid=os.getpid(), source="parent", **sample
                )
        except Exception:
            # Observability must never take down the run it observes.
            pass

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._emit_sample()

    def start(self) -> None:
        if self._thread is not None:
            return
        self._emit_sample()
        self._thread = threading.Thread(
            target=self._loop, name="repro-resource-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._emit_sample()

    def __enter__(self) -> "ResourceSampler":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


class _NullSampler:
    """The no-op stand-in when sampling is off (one ``with`` either way)."""

    def __enter__(self) -> "_NullSampler":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


NULL_SAMPLER = _NullSampler()
