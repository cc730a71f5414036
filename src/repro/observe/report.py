"""Single-file static HTML dashboards for runs and campaigns.

``python -m repro report html`` renders one self-contained document —
inline CSS, inline SVG, zero scripts, zero external assets — so the file
can be attached to a CI run or mailed around and still open anywhere.

Sections appear when their inputs do:

* a telemetry JSONL file contributes phase wall-clock bars, counter
  tables, worker-utilization attribution, and resource-gauge tables
  (through :func:`repro.observe.registry.fold_events`);
* a results store + campaign id contributes the campaign overview, unit
  timing, and per-protocol trajectory sparklines (the same series
  ``dynamics show`` renders as block characters, here as SVG polylines);
* a results store with perf history contributes the wall-clock series
  and the current :func:`repro.observe.perf.detect_drift` verdicts.
"""

from __future__ import annotations

import html
import math
from typing import Any, Iterable, Sequence

from repro.observe.perf import group_samples, regress_groups
from repro.observe.registry import MetricsRegistry, fold_events
from repro.observe.workers import worker_utilization

#: Trajectory series drawn per protocol (a readable subset of the full
#: export; `dynamics export` remains the firehose).
TRAJECTORY_SERIES = ("throughput", "backlog", "contention")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 960px; color: #1a1a2e; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #16213e; padding-bottom: .3rem; }
h2 { font-size: 1.05rem; margin-top: 1.6rem; color: #16213e; }
table { border-collapse: collapse; font-size: .85rem; margin: .5rem 0; }
th, td { border: 1px solid #d0d0e0; padding: .25rem .55rem; text-align: left; }
th { background: #f0f0f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.bar { fill: #0f3460; }
.barlabel { font-size: 11px; fill: #1a1a2e; }
.spark { stroke: #0f3460; stroke-width: 1.5; fill: none; }
.sparkfill { fill: #0f346022; stroke: none; }
.ok { color: #0a7a2f; font-weight: 600; }
.drift { color: #b00020; font-weight: 600; }
.insufficient { color: #888; }
.meta { color: #666; font-size: .8rem; }
"""


def _e(value: Any) -> str:
    return html.escape(str(value))


def _finite(values: Iterable[float]) -> list[float]:
    return [float(v) for v in values if v is not None and math.isfinite(float(v))]


def svg_sparkline(
    values: Sequence[float], *, width: int = 260, height: int = 40
) -> str:
    """An inline-SVG sparkline of a series (empty string for no data).

    Long series are downsampled by window means, mirroring
    :func:`repro.dynamics.render.sparkline`'s behaviour so the SVG and
    block-character views of the same trajectory agree.
    """
    data = _finite(values)
    if not data:
        return ""
    max_points = max(width // 2, 2)
    if len(data) > max_points:
        edges = [round(i * len(data) / max_points) for i in range(max_points + 1)]
        data = [
            sum(data[a:b]) / (b - a)
            for a, b in zip(edges[:-1], edges[1:])
            if b > a
        ]
    low, high = min(data), max(data)
    span = high - low
    pad = 3.0
    inner_h = height - 2 * pad
    step = (width - 2 * pad) / max(len(data) - 1, 1)
    points = []
    for index, value in enumerate(data):
        x = pad + index * step
        y = (
            height / 2.0
            if span == 0
            else pad + inner_h * (1.0 - (value - low) / span)
        )
        points.append(f"{x:.1f},{y:.1f}")
    polyline = " ".join(points)
    area = f"{pad:.1f},{height - pad:.1f} {polyline} {pad + (len(data) - 1) * step:.1f},{height - pad:.1f}"
    return (
        f'<svg width="{width}" height="{height}" viewBox="0 0 {width} {height}" '
        f'role="img">'
        f'<polygon class="sparkfill" points="{area}"/>'
        f'<polyline class="spark" points="{polyline}"/></svg>'
    )


def _bar_chart(rows: Sequence[tuple[str, float]], *, width: int = 620) -> str:
    """Horizontal SVG wall-clock bars, one row per (label, seconds)."""
    if not rows:
        return ""
    row_h, gap, label_w = 20, 6, 250
    height = len(rows) * (row_h + gap)
    peak = max(seconds for _, seconds in rows) or 1.0
    parts = [
        f'<svg width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img">'
    ]
    for index, (label, seconds) in enumerate(rows):
        y = index * (row_h + gap)
        bar_w = max((width - label_w - 90) * seconds / peak, 1.0)
        parts.append(
            f'<text class="barlabel" x="0" y="{y + row_h - 6}">{_e(label)}</text>'
            f'<rect class="bar" x="{label_w}" y="{y + 3}" '
            f'width="{bar_w:.1f}" height="{row_h - 6}"/>'
            f'<text class="barlabel" x="{label_w + bar_w + 6}" '
            f'y="{y + row_h - 6}">{seconds:.4f}s</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], numeric: set[int] = frozenset()
) -> str:
    out = ["<table><tr>"]
    out.extend(f"<th>{_e(header)}</th>" for header in headers)
    out.append("</tr>")
    for row in rows:
        out.append("<tr>")
        for index, cell in enumerate(row):
            css = ' class="num"' if index in numeric else ""
            out.append(f"<td{css}>{_e(cell if cell is not None else '-')}</td>")
        out.append("</tr>")
    out.append("</table>")
    return "".join(out)


def _telemetry_sections(events: list[dict[str, Any]]) -> list[str]:
    from repro.telemetry import summarize_events

    summary = summarize_events(events)
    sections: list[str] = []
    phase_rows = [
        (f"{row['name']} [{row['backend']}]", row["total"])
        for row in summary["phases"]
    ]
    if phase_rows:
        sections.append("<h2>Phase wall-clock</h2>" + _bar_chart(phase_rows))
        coverage = summary["coverage"]
        if coverage is not None:
            sections.append(
                f'<p class="meta">phases explain {coverage:.1%} of '
                f"{summary['root_seconds']:.4f}s root wall-clock "
                f"across {len(summary['runs'])} session(s)</p>"
            )
    if summary["counters"]:
        sections.append(
            "<h2>Counters</h2>"
            + _table(
                ("counter", "total"),
                [
                    (name, f"{value:.0f}" if float(value).is_integer() else f"{value:.4f}")
                    for name, value in summary["counters"].items()
                ],
                numeric={1},
            )
        )
    utilization = worker_utilization(events)
    if utilization is not None:
        rows = [
            (
                row["pid"],
                row["jobs"],
                f"{row['busy_seconds']:.4f}",
                f"{row['busy_fraction']:.1%}" if row["busy_fraction"] is not None else "-",
            )
            for row in utilization["workers"]
        ]
        caption = (
            f"{utilization['jobs']} job(s) over {len(utilization['workers'])} "
            f"worker(s) in {utilization['wall_seconds']:.4f}s"
        )
        if utilization.get("imbalance"):
            caption += f"; imbalance {utilization['imbalance']:.2f}x (max/mean busy)"
        wait = utilization.get("queue_wait")
        if wait:
            caption += (
                f"; queue wait p50 {wait['p50']:.4f}s / p95 {wait['p95']:.4f}s"
            )
        sections.append(
            "<h2>Worker utilization</h2>"
            + _table(("pid", "jobs", "busy_s", "busy fraction"), rows, numeric={1, 2, 3})
            + f'<p class="meta">{_e(caption)}</p>'
        )
    sections.extend(_resource_sections(events))
    return sections


def _resource_sections(events: list[dict[str, Any]]) -> list[str]:
    registry: MetricsRegistry = fold_events(events)
    rss = registry.get("repro_resource_rss_peak_bytes")
    cpu = registry.get("repro_resource_cpu_seconds")
    fds = registry.get("repro_resource_open_fds")
    if rss is None and cpu is None and fds is None:
        return []
    by_process: dict[tuple[str, str], dict[str, Any]] = {}
    for metric, column in ((rss, "rss_peak"), (cpu, "cpu_seconds"), (fds, "fds")):
        if metric is None:
            continue
        for labels, value in metric.samples():
            key = (labels.get("pid", "-"), labels.get("source", "-"))
            by_process.setdefault(key, {})[column] = value
    rss_series = [
        float(record["attrs"]["rss_bytes"])
        for record in events
        if record.get("ev") == "event"
        and record.get("name") == "resource_sample"
        and (record.get("attrs") or {}).get("source") == "parent"
        and "rss_bytes" in (record.get("attrs") or {})
    ]
    rows = [
        (
            pid,
            source,
            f"{cells['rss_peak'] / 1048576:.1f} MiB" if "rss_peak" in cells else "-",
            f"{cells['cpu_seconds']:.2f}" if "cpu_seconds" in cells else "-",
            int(cells["fds"]) if "fds" in cells else "-",
        )
        for (pid, source), cells in sorted(by_process.items())
    ]
    section = "<h2>Resources</h2>" + _table(
        ("pid", "source", "rss peak", "cpu_s", "fds"), rows, numeric={2, 3, 4}
    )
    if len(rss_series) >= 2:
        section += (
            f'<p class="meta">parent RSS over time '
            f"({len(rss_series)} samples)</p>" + svg_sparkline(rss_series)
        )
    return [section]


def _campaign_sections(store: Any, campaign_id: str) -> list[str]:
    from repro.campaigns.runner import CampaignError
    from repro.observe.workers import unit_imbalance

    campaign = store.get_campaign(campaign_id)
    if campaign is None:
        raise CampaignError(f"unknown campaign {campaign_id!r}")
    sections = ["<h2>Campaign</h2>"]
    done = store.campaign_run_count(campaign_id)
    sections.append(
        _table(
            ("campaign", "scenario", "status", "runs", "backend", "scale", "elapsed_s"),
            [
                (
                    campaign_id,
                    campaign["scenario_id"],
                    campaign["status"],
                    f"{done}/{campaign['total_runs']}",
                    campaign["backend"],
                    campaign["scale"],
                    f"{campaign['elapsed_seconds'] or 0.0:.2f}",
                )
            ],
            numeric={6},
        )
    )
    units = store.campaign_units(campaign_id)
    if units:
        unit_rows = [
            (f"unit {row['unit_index']} [{row['protocol']}]", row["elapsed_seconds"])
            for row in units
        ]
        sections.append("<h2>Unit wall-clock</h2>" + _bar_chart(unit_rows))
        imbalance = unit_imbalance([row["elapsed_seconds"] for row in units])
        if imbalance is not None:
            sections.append(
                f'<p class="meta">unit imbalance {imbalance:.2f}x (max/mean)</p>'
            )
    sections.extend(_trajectory_sections(store, campaign_id))
    return sections


def _trajectory_sections(store: Any, campaign_id: str) -> list[str]:
    memberships = store.campaign_run_rows(campaign_id)
    first_by_protocol: dict[str, dict[str, Any]] = {}
    for row in memberships:
        first_by_protocol.setdefault(str(row["protocol"]), row)
    blocks: list[str] = []
    for protocol in sorted(first_by_protocol):
        row = first_by_protocol[protocol]
        trajectory = store.get_trajectory(
            row["spec_hash"], row["seed"], row["backend_layout"]
        )
        if trajectory is None:
            continue
        cells = []
        for series in TRAJECTORY_SERIES:
            raw = getattr(trajectory, series, None)
            values = [] if raw is None else list(raw)
            spark = svg_sparkline(values)
            if spark:
                cells.append(
                    f"<td>{_e(series)}</td><td>{spark}</td>"
                )
        if cells:
            rows_html = "".join(f"<tr>{cell}</tr>" for cell in cells)
            blocks.append(
                f"<h2>Trajectory — {_e(protocol)} "
                f'<span class="meta">(spec {_e(row["spec_hash"][:12])}, '
                f"seed {_e(row['seed'])})</span></h2>"
                f"<table>{rows_html}</table>"
            )
    return blocks


def _perf_sections(store: Any) -> list[str]:
    rows = store.perf_sample_rows()
    if not rows:
        return []
    verdicts = regress_groups(rows)
    groups = group_samples(rows)
    table_rows = []
    sparks = []
    for verdict in verdicts:
        key = (verdict["spec_hash"], verdict["backend_layout"], verdict["host"])
        samples = groups[key]
        status = verdict["status"]
        table_rows.append(
            (
                verdict.get("label") or verdict["spec_hash"][:12],
                verdict["backend_layout"],
                verdict["samples"],
                verdict.get("latest_mean"),
                verdict.get("baseline_mean"),
                verdict.get("ratio"),
                verdict.get("p_value"),
                status,
            )
        )
        spark = svg_sparkline([row["seconds"] for row in samples])
        if spark:
            sparks.append(
                f'<p class="meta">{_e(verdict.get("label") or key[0][:12])} '
                f"[{_e(verdict['backend_layout'])}] wall-clock</p>{spark}"
            )
    # Status cells get their verdict class by post-processing the plain
    # table (keeps _table generic).
    table = _table(
        (
            "workload", "layout", "samples", "latest_s", "baseline_s",
            "ratio", "p", "verdict",
        ),
        table_rows,
        numeric={2, 3, 4, 5, 6},
    )
    for status in ("drift", "ok", "insufficient"):
        table = table.replace(
            f"<td>{status}</td>", f'<td class="{status}">{status}</td>'
        )
    return ["<h2>Performance history</h2>", table, *sparks]


def render_html_report(
    *,
    store: Any | None = None,
    campaign_id: str | None = None,
    events: list[dict[str, Any]] | None = None,
    title: str | None = None,
) -> str:
    """Assemble the dashboard from whichever inputs are present."""
    from repro.observe.perf import host_fingerprint
    from repro.store.store import describe_version

    sections: list[str] = []
    if events:
        sections.extend(_telemetry_sections(events))
    if store is not None and campaign_id is not None:
        sections.extend(_campaign_sections(store, campaign_id))
    if store is not None:
        sections.extend(_perf_sections(store))
    if not sections:
        sections.append("<p>(nothing to report: no telemetry events, campaign, or perf history)</p>")
    heading = title or (
        f"repro report — {campaign_id}" if campaign_id else "repro report"
    )
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_e(heading)}</title><style>{_CSS}</style></head><body>"
        f"<h1>{_e(heading)}</h1>"
        f'<p class="meta">version {_e(describe_version())} · '
        f"host {_e(host_fingerprint())}</p>"
        + "".join(sections)
        + "</body></html>\n"
    )
