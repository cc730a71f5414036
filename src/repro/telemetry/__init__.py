"""Zero-dependency observability for the repro stack.

See :mod:`repro.telemetry.core` for the session/span/event model,
:mod:`repro.telemetry.sinks` for the JSONL / in-memory / stderr-progress
sinks, and :mod:`repro.telemetry.summarize` for the one fold of the
event stream, behind ``repro telemetry summarize``: span tables, counter
totals, event counts, coverage, and the ``resources`` table of peak RSS
and last CPU/fd readings per sampled process.
"""

from repro.telemetry.core import (
    NULL_SESSION,
    NullSession,
    Sink,
    Span,
    TelemetrySession,
    activate,
    activated,
    current,
    deactivate,
)
from repro.telemetry.sinks import JsonlSink, MemorySink, ProgressSink
from repro.telemetry.summarize import (
    filter_events,
    iter_events,
    read_events,
    render_summary,
    summarize_events,
)

__all__ = [
    "NULL_SESSION",
    "NullSession",
    "Sink",
    "Span",
    "TelemetrySession",
    "activate",
    "activated",
    "current",
    "deactivate",
    "JsonlSink",
    "MemorySink",
    "ProgressSink",
    "filter_events",
    "iter_events",
    "read_events",
    "render_summary",
    "summarize_events",
]
