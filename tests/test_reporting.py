"""Tests for experiment-report rendering."""

from repro.experiments.reporting import _ordered_columns, render_report
from repro.experiments.spec import ExperimentReport, ExperimentSpec


def make_report() -> ExperimentReport:
    spec = ExperimentSpec(
        exp_id="EX",
        title="Example experiment",
        claim="Something holds.",
        bench_target="benchmarks/bench_example.py",
    )
    report = ExperimentReport(spec=spec)
    report.add_row({"protocol": "low-sensing", "n": 100, "throughput": 0.3, "zzz": 1})
    report.add_row({"protocol": "beb", "n": 100, "throughput": 0.1, "zzz": 2})
    report.verdicts["who_wins"] = "low-sensing"
    report.notes.append("smoke scale")
    return report


class TestRenderReport:
    def test_contains_header_claim_and_rows(self):
        rendered = render_report(make_report())
        assert "== EX: Example experiment ==" in rendered
        assert "Something holds." in rendered
        assert "low-sensing" in rendered and "beb" in rendered

    def test_contains_verdicts_and_notes(self):
        rendered = render_report(make_report())
        assert "who_wins: low-sensing" in rendered
        assert "smoke scale" in rendered

    def test_empty_report_renders_placeholder(self):
        spec = ExperimentSpec("EY", "t", "c", "b")
        rendered = render_report(ExperimentReport(spec=spec))
        assert "(no rows)" in rendered

    def test_preferred_columns_come_first_and_unknown_columns_last(self):
        columns = _ordered_columns(make_report())
        assert columns[0] == "protocol"
        assert columns.index("throughput") < columns.index("zzz")
        assert set(columns) == {"protocol", "n", "throughput", "zzz"}

