"""Zero-dependency observability for the repro stack.

See :mod:`repro.telemetry.core` for the session/span/event model,
:mod:`repro.telemetry.sinks` for the JSONL / in-memory / stderr-progress
sinks, and :mod:`repro.telemetry.summarize` for the offline aggregator
behind ``repro telemetry summarize``.
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
