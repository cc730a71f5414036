"""Aggregate a telemetry JSONL file into per-phase/per-backend tables.

The reader tolerates a truncated final line (the expected artifact of a
SIGKILL mid-write, see :class:`repro.telemetry.sinks.JsonlSink`) and
skips any malformed interior line rather than failing the whole file.

The summary decomposes wall-clock by span kind:

* ``root`` spans (sweep / scenario / campaign) define total wall clock.
* ``phase`` spans (build / simulate / finalize / commit) decompose it;
  their share of root time is the ``coverage`` figure the acceptance
  bar cares about (≥95% means the breakdown explains the run).
* ``unit`` spans (campaign checkpoint units) are reported separately
  and excluded from coverage — the phases inside them already count.

``resource_sample`` events (``--sample-resources`` and the process
pool's job-boundary snapshots, see :mod:`repro.observe.resources`) fold
into one ``resources`` row per ``(pid, source)``: the peak RSS and the
last CPU-seconds and open-fd readings.  A file without samples gets no
``resources`` table or key.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable, Iterator

from repro.analysis.statistics import quantile


def iter_events(path: str | Path) -> Iterator[dict[str, Any]]:
    """Stream a telemetry JSONL file one parsed event at a time.

    Reads line-by-line — memory stays flat no matter how large the file
    grows (a campaign with resource sampling emits tens of thousands of
    lines) — and tolerates a truncated final line, the expected artifact
    of a SIGKILL mid-write (see
    :class:`repro.telemetry.sinks.JsonlSink`).  Malformed interior lines
    are skipped too: a summary of most of a file beats no summary.
    """
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict):
                yield record


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse a telemetry JSONL file, tolerating a truncated final line."""
    return list(iter_events(path))


def filter_events(
    events: Iterable[dict[str, Any]],
    *,
    runs: Iterable[str] | None = None,
    last: bool = False,
) -> list[dict[str, Any]]:
    """Select the events of specific sessions.

    ``runs`` are run-id *prefixes* (like git object names: any
    unambiguous prefix of the id ``session_start`` printed); ``last``
    keeps only the file's most recent session.  With neither, the events
    come back unchanged.
    """
    events = list(events)
    prefixes = tuple(runs) if runs else ()
    if last:
        order: list[str] = []
        for record in events:
            run = record.get("run")
            if run and run not in order:
                order.append(run)
        if not order:
            return []
        prefixes = prefixes + (order[-1],)
    if not prefixes:
        return events
    return [
        record
        for record in events
        if any(str(record.get("run", "")).startswith(p) for p in prefixes)
    ]


def summarize_events(events: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold telemetry events into the summary structure rendered below.

    Returns a dict with ``runs`` (correlation ids seen), ``phases`` /
    ``roots`` / ``units`` span tables keyed by ``(name, backend)``,
    ``counters`` totals, ``events`` counts keyed by ``(name, key-detail)``,
    and ``coverage`` (phase seconds / root seconds, ``None`` when no
    root span exists).  When the events carry ``resource_sample``
    events, ``resources`` lists one row per ``(pid, source)`` with the
    peak ``rss_bytes`` and the last ``cpu_seconds`` and ``fds``.
    """
    runs: list[str] = []
    phases: dict[tuple[str, str], dict[str, Any]] = {}
    roots: dict[tuple[str, str], dict[str, Any]] = {}
    units: dict[tuple[str, str], dict[str, Any]] = {}
    counters: dict[str, float] = {}
    event_counts: dict[str, int] = {}
    event_specs: dict[str, set[str]] = {}
    resources: dict[tuple[str, str], dict[str, Any]] = {}

    def fold_span(table: dict[tuple[str, str], dict[str, Any]], record: dict[str, Any]) -> None:
        attrs = record.get("attrs") or {}
        key = (str(record.get("name")), str(attrs.get("backend", "-")))
        row = table.setdefault(
            key,
            {
                "name": key[0],
                "backend": key[1],
                "count": 0,
                "total": 0.0,
                "max": 0.0,
                "durations": [],
            },
        )
        duration = float(record.get("dur", 0.0))
        row["count"] += 1
        row["total"] += duration
        row["max"] = max(row["max"], duration)
        row["durations"].append(duration)

    for record in events:
        run = record.get("run")
        if run and run not in runs:
            runs.append(run)
        kind = record.get("ev")
        if kind == "span":
            attrs = record.get("attrs") or {}
            span_kind = attrs.get("kind", "phase")
            if span_kind == "root":
                fold_span(roots, record)
            elif span_kind == "unit":
                fold_span(units, record)
            else:
                fold_span(phases, record)
        elif kind == "counter":
            name = str(record.get("name"))
            counters[name] = counters.get(name, 0.0) + float(record.get("value", 0.0))
        elif kind == "event":
            attrs = record.get("attrs") or {}
            name = str(record.get("name"))
            reason = attrs.get("reason")
            label = f"{name}[{reason}]" if reason else name
            event_counts[label] = event_counts.get(label, 0) + 1
            # Spec-hash prefixes (vector_fallback carries them) name *which*
            # configurations an event row covers, not just how many times.
            spec = attrs.get("spec")
            if spec:
                event_specs.setdefault(label, set()).add(str(spec))
            if name == "resource_sample":
                key = (str(attrs.get("pid", "-")), str(attrs.get("source", "-")))
                row = resources.setdefault(
                    key,
                    {
                        "pid": key[0],
                        "source": key[1],
                        "rss_peak_bytes": None,
                        "cpu_seconds": None,
                        "fds": None,
                    },
                )
                # The high-water mark is what capacity planning reads; a
                # last RSS reading taken after a job would miss it.
                rss = attrs.get("rss_bytes")
                if rss is not None:
                    row["rss_peak_bytes"] = max(rss, row["rss_peak_bytes"] or 0)
                for field in ("cpu_seconds", "fds"):
                    if attrs.get(field) is not None:
                        row[field] = attrs[field]

    for table in (phases, roots, units):
        for row in table.values():
            row["mean"] = row["total"] / row["count"] if row["count"] else 0.0
            # Linear interpolation (repro.analysis.statistics.quantile), as
            # the worker table's queue-wait quantiles.
            durations = row.pop("durations")
            row["p50"] = quantile(durations, 0.5) if durations else 0.0
            row["p95"] = quantile(durations, 0.95) if durations else 0.0

    phase_total = sum(row["total"] for row in phases.values())
    root_total = sum(row["total"] for row in roots.values())
    coverage = phase_total / root_total if root_total > 0 else None
    summary: dict[str, Any] = {
        "runs": runs,
        "phases": sorted(phases.values(), key=lambda r: -r["total"]),
        "roots": sorted(roots.values(), key=lambda r: -r["total"]),
        "units": sorted(units.values(), key=lambda r: -r["total"]),
        "counters": dict(sorted(counters.items())),
        "events": dict(sorted(event_counts.items())),
        "event_specs": {
            label: sorted(specs) for label, specs in sorted(event_specs.items())
        },
        "phase_seconds": phase_total,
        "root_seconds": root_total,
        "coverage": coverage,
    }
    if resources:
        summary["resources"] = list(resources.values())
    return summary


def render_summary(summary: dict[str, Any]) -> str:
    """Render :func:`summarize_events` output as an aligned text table."""
    lines: list[str] = []
    runs = summary["runs"]
    lines.append(f"telemetry summary — {len(runs)} session(s): {', '.join(runs) or '-'}")
    lines.append("")

    def span_table(title: str, rows: list[dict[str, Any]], denom: float) -> None:
        if not rows:
            return
        lines.append(title)
        header = (
            f"  {'name':<18} {'backend':<22} {'count':>6} {'total_s':>10} "
            f"{'mean_s':>10} {'p50_s':>10} {'p95_s':>10} {'max_s':>10} {'share':>7}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in rows:
            share = f"{row['total'] / denom:6.1%}" if denom > 0 else "     -"
            lines.append(
                f"  {row['name']:<18} {row['backend']:<22} {row['count']:>6} "
                f"{row['total']:>10.4f} {row['mean']:>10.4f} {row['p50']:>10.4f} "
                f"{row['p95']:>10.4f} {row['max']:>10.4f} {share:>7}"
            )
        lines.append("")

    span_table("roots (total wall-clock)", summary["roots"], summary["root_seconds"])
    span_table("phases (per-phase / per-backend breakdown)", summary["phases"], summary["root_seconds"])
    span_table("campaign units", summary["units"], summary["root_seconds"])

    if summary["counters"]:
        lines.append("counters")
        for name, value in summary["counters"].items():
            rendered = f"{int(value)}" if float(value).is_integer() else f"{value:.4f}"
            lines.append(f"  {name:<42} {rendered:>14}")
        lines.append("")
    if summary["events"]:
        lines.append("events")
        event_specs = summary.get("event_specs", {})
        for name, count in summary["events"].items():
            lines.append(f"  {name:<42} {count:>14}")
            specs = event_specs.get(name)
            if specs:
                shown = ", ".join(specs[:4])
                extra = f" +{len(specs) - 4} more" if len(specs) > 4 else ""
                lines.append(f"    specs: {shown}{extra}")
        lines.append("")
    if summary.get("resources"):
        lines.append("resources (peak RSS; last CPU and fd readings)")
        header = (
            f"  {'pid':<10} {'source':<8} {'peak_rss_mib':>12} {'cpu_s':>10} {'fds':>6}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for row in summary["resources"]:
            rss, cpu, fds = row["rss_peak_bytes"], row["cpu_seconds"], row["fds"]
            rss_text = f"{rss / 2**20:.1f}" if rss is not None else "-"
            cpu_text = f"{cpu:.4f}" if cpu is not None else "-"
            fds_text = str(fds) if fds is not None else "-"
            lines.append(
                f"  {row['pid']:<10} {row['source']:<8} {rss_text:>12} "
                f"{cpu_text:>10} {fds_text:>6}"
            )
        lines.append("")

    if summary["coverage"] is not None:
        lines.append(
            f"coverage: phases explain {summary['coverage']:.1%} of "
            f"{summary['root_seconds']:.4f}s root wall-clock"
        )
    else:
        lines.append("coverage: no root spans in file")
    return "\n".join(lines)
