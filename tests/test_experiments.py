"""Tests for the experiment harness (specs, registry, smoke runs, reporting)."""

import pytest

from repro.core.low_sensing import DecoupledLowSensingBackoff, LowSensingBackoff
from repro.experiments.experiments import (
    ALL_EXPERIMENTS,
    build_a1_plan,
    run_e1_throughput_batch,
    run_e6_reactive,
    run_e9_potential_drift,
)
from repro.experiments.reporting import render_report
from repro.experiments.spec import ExperimentReport, ExperimentSpec, check_scale


class TestSpec:
    def test_check_scale(self):
        assert check_scale("smoke") == "smoke"
        with pytest.raises(ValueError):
            check_scale("huge")

    def test_report_columns_and_filters(self):
        spec = ExperimentSpec("EX", "title", "claim", "bench")
        report = ExperimentReport(spec=spec)
        report.add_row({"protocol": "a", "n": 1, "throughput": 0.5})
        report.add_row({"protocol": "b", "n": 1, "throughput": 0.2})
        assert report.column("throughput") == [0.5, 0.2]
        assert report.rows_where(protocol="a")[0]["throughput"] == 0.5
        with pytest.raises(KeyError):
            report.column("missing")

    def test_empty_exp_id_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("", "t", "c", "b")


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "A1",
        }

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            run_e1_throughput_batch(scale="enormous")


class TestSmokeRuns:
    """Each experiment must run end-to-end at smoke scale and produce rows."""

    @pytest.mark.parametrize("exp_id", sorted(ALL_EXPERIMENTS))
    def test_experiment_produces_rows_and_renders(self, exp_id):
        report = ALL_EXPERIMENTS[exp_id](scale="smoke")
        assert report.rows, f"{exp_id} produced no rows"
        rendered = render_report(report)
        assert report.spec.exp_id in rendered
        assert "Claim:" in rendered

    def test_e1_smoke_shows_low_sensing_beats_beb(self):
        report = run_e1_throughput_batch(scale="smoke")
        lsb = report.rows_where(protocol="low-sensing")
        beb = report.rows_where(protocol="binary-exponential")
        assert min(r["throughput"] for r in lsb) > max(r["throughput"] for r in beb)

    def test_e6_smoke_victim_pays_more_than_average(self):
        report = run_e6_reactive(scale="smoke")
        jammed_rows = [r for r in report.rows if r["jam_budget"] > 0]
        assert all(r["victim_accesses"] > r["mean_accesses"] for r in jammed_rows)

    def test_e9_smoke_potential_bounded(self):
        report = run_e9_potential_drift(scale="smoke")
        assert all(row["max_potential_over_n_plus_j"] < 50.0 for row in report.rows)
        assert all(row["fraction_negative_drift"] > 0.2 for row in report.rows)

    def test_a1_smoke_runs_the_decoupled_variant(self):
        # The smoke plan must cover the variant the ablation exists for.
        protocols = {type(spec.protocol) for spec in build_a1_plan("smoke").specs}
        assert protocols == {LowSensingBackoff, DecoupledLowSensingBackoff}
