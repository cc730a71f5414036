"""Rendering of experiment reports.

``render_report`` turns an :class:`~repro.experiments.spec.ExperimentReport`
into the plain-text block that the benchmarks print and write to
`benchmarks/results/`.  The module is also runnable::

    python -m repro.experiments.reporting E1 E4 --scale smoke

which regenerates the requested experiments from the command line without
going through pytest.
"""

from __future__ import annotations

import argparse
from typing import Iterable

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


def main(argv: Iterable[str] | None = None) -> int:
    """Command-line entry point: run and print selected experiments."""
    from repro.experiments.experiments import ALL_EXPERIMENTS

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "experiments",
        nargs="*",
        default=list(ALL_EXPERIMENTS),
        help="experiment ids to run (default: all)",
    )
    parser.add_argument("--scale", default="default", choices=("smoke", "default", "full"))
    args = parser.parse_args(list(argv) if argv is not None else None)
    for exp_id in args.experiments:
        if exp_id not in ALL_EXPERIMENTS:
            parser.error(f"unknown experiment id {exp_id!r}")
        report = ALL_EXPERIMENTS[exp_id](scale=args.scale)
        print(render_report(report))
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
