"""Rendering of experiment reports.

``render_report`` turns an :class:`~repro.experiments.spec.ExperimentReport`
into the plain-text block that the benchmarks print and write to
`benchmarks/results/`; ``python -m repro run`` prints the same block.
"""

from __future__ import annotations

from repro.analysis.tables import render_rows
from repro.experiments.spec import ExperimentReport

#: Columns shown first when present; remaining columns follow in row order.
_PREFERRED_COLUMNS = (
    "protocol",
    "scenario",
    "variant",
    "n",
    "jam_budget",
    "jammer",
    "rate",
    "granularity",
    "placement",
    "workload",
    "seed",
    "throughput",
    "implicit_throughput",
    "min_implicit_throughput",
    "mean_accesses",
    "max_accesses",
    "victim_accesses",
    "mean_listens",
    "mean_sends",
    "max_backlog",
    "max_backlog_over_s",
    "fraction_negative_drift",
    "max_potential_over_n_plus_j",
    "makespan",
    "drained",
)


def _ordered_columns(report: ExperimentReport) -> list[str]:
    present: set[str] = set()
    for row in report.rows:
        present.update(row.keys())
    ordered = [column for column in _PREFERRED_COLUMNS if column in present]
    ordered.extend(sorted(present - set(ordered)))
    return ordered


def report_to_dict(report: ExperimentReport) -> dict:
    """A JSON-serialisable representation of a report (used by the CLI)."""
    return {
        "experiment": report.spec.exp_id,
        "title": report.spec.title,
        "claim": report.spec.claim,
        "bench_target": report.spec.bench_target,
        "rows": [dict(row) for row in report.rows],
        "verdicts": dict(report.verdicts),
        "notes": list(report.notes),
    }


def render_report(report: ExperimentReport, precision: int = 4) -> str:
    """Render an experiment report as a plain-text block."""
    lines = [
        f"== {report.spec.exp_id}: {report.spec.title} ==",
        f"Claim: {report.spec.claim}",
        f"Bench target: {report.spec.bench_target}",
        "",
    ]
    if report.rows:
        lines.append(
            render_rows(report.rows, columns=_ordered_columns(report), precision=precision)
        )
    else:
        lines.append("(no rows)")
    if report.verdicts:
        lines.append("")
        lines.append("Verdicts:")
        for key, value in report.verdicts.items():
            lines.append(f"  - {key}: {value}")
    if report.notes:
        lines.append("")
        lines.append("Notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines)

