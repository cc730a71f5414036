"""Tests for the ``python -m repro`` command line."""

import argparse
import json

import pytest

from repro.cli import build_parser, main


def _command_tree(parser, prefix=()):
    """Every command family and subcommand of ``parser``, in parser order."""
    entries = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                entries.append(" ".join((*prefix, name)))
                entries += _command_tree(sub, (*prefix, name))
    return entries


def test_command_tree():
    """The census of the command line: adding or removing a command shows
    up here as one diff."""
    assert _command_tree(build_parser()) == [
        "list",
        "run",
        "scenario",
        "scenario list",
        "scenario show",
        "scenario run",
        "equivalence",
        "campaign",
        "campaign run",
        "campaign resume",
        "campaign status",
        "campaign show",
        "campaign diff",
        "telemetry",
        "telemetry summarize",
        "dynamics",
        "dynamics show",
        "dynamics export",
        "perf",
        "perf record",
        "perf history",
        "perf regress",
        "cache",
        "cache stats",
        "cache prune",
    ]


def test_every_command_renders_its_help(capsys):
    """argparse formats help text only when asked, so a malformed help
    string (a bare ``%``, say) would break only that command's ``--help``."""
    for command in _command_tree(build_parser()):
        with pytest.raises(SystemExit) as excinfo:
            main([*command.split(), "--help"])
        assert excinfo.value.code == 0, command
        out = capsys.readouterr().out
        assert out.startswith(f"usage: python -m repro {command}"), command


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("E1", "E5", "E9", "A1"):
            assert exp_id in out
        assert "benchmarks/bench_e1_throughput_batch.py" in out

    def test_lists_scenarios_too(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Scenarios" in out
        assert "onoff-jamming" in out

    def test_json_listing_is_machine_readable(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        experiment_ids = [row["id"] for row in payload["experiments"]]
        assert experiment_ids == sorted(experiment_ids)
        assert "E1" in experiment_ids and len(experiment_ids) == 10
        scenarios = payload["scenarios"]
        assert len(scenarios) >= 10
        for row in scenarios:
            assert row["id"] and row["title"]
            assert isinstance(row["protocols"], list)
            assert len(row["content_hash"]) == 64

    def test_json_listing_reports_vectorization(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        by_id = {row["id"]: row["vectorization"] for row in payload["experiments"]}
        # E1 is entirely on the lockstep engine since the sensing kernels.
        e1 = by_id["E1"]
        assert e1["vectorizable_specs"] == e1["total_specs"] > 0
        assert 0 < e1["mega_batches"] <= e1["vector_groups"]
        assert e1["fallbacks"] == []
        # E6's reactive jammers ride the feedback loop, and E9's Φ groups
        # vectorize like any other.
        e6 = by_id["E6"]
        assert e6["vectorizable_specs"] == e6["total_specs"] > 0
        assert e6["fallbacks"] == []
        assert e6["fallback_histogram"] == {}
        e9 = by_id["E9"]
        assert e9["vectorizable_specs"] == e9["total_specs"] > 0
        assert e9["fallbacks"] == []
        assert set(e9) == {
            "total_specs",
            "vectorizable_specs",
            "vector_groups",
            "mega_batches",
            "fallbacks",
            "fallback_histogram",
        }
        # Scenarios carry the same field.
        for row in payload["scenarios"]:
            assert "vectorization" in row
            assert row["vectorization"]["total_specs"] > 0


class TestExplain:
    def test_explain_prints_table_without_running(self, capsys):
        assert main(["run", "e1", "--scale", "smoke", "--explain"]) == 0
        out = capsys.readouterr().out
        assert "12/12 specs vectorize" in out
        assert "vector kernel" in out
        assert "low-sensing" in out and "sawtooth" in out
        # No execution happened: no report table, no timing line.
        assert "throughput" not in out

    def test_explain_shows_reactive_experiment_on_vector_path(self, capsys):
        assert main(["run", "e6", "e9", "--scale", "smoke", "--explain"]) == 0
        out = capsys.readouterr().out
        # E6's reactive jammers and E9's potential tracking ride the
        # lockstep feedback loop.
        assert out.count("2/2 specs vectorize") == 2
        assert "fallback: " not in out
        assert "vector kernel" in out

    def test_explain_handles_multiple_ids_and_seeds(self, capsys):
        assert main(
            ["run", "e1", "e9", "--scale", "smoke", "--seeds", "1,2", "--explain"]
        ) == 0
        out = capsys.readouterr().out
        assert "[E1]" in out and "[E9]" in out
        assert "fallback: " not in out

    def test_explain_aggregates_fallback_reasons_into_histogram(self, capsys):
        from repro.adversary.arrivals import TraceArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.cli import _fallback_histogram, _print_vectorization_table
        from repro.experiments.plan import SweepPlan, factory
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        replayed = factory(CompositeAdversary, factory(TraceArrivals, (4, 0, 1)))
        plan = SweepPlan()
        plan.add_group(BinaryExponentialBackoff(), replayed, seeds=[1, 2, 3])
        plan.add_group(
            BinaryExponentialBackoff(initial_window=8.0), replayed, seeds=[4, 5]
        )
        histogram = _fallback_histogram(plan, plan.vector_summary())
        assert list(histogram.values()) == [5]  # 5 specs, one shared reason
        assert "TraceArrivals" in next(iter(histogram))
        _print_vectorization_table("demo", plan, "smoke")
        out = capsys.readouterr().out
        assert "fallback reasons (spec counts):" in out
        assert "   5  " in out


class TestRun:
    def test_run_writes_json_report(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            ["run", "e1", "--scale", "smoke", "--seeds", "11", "--out", str(out_dir)]
        )
        assert code == 0
        payload = json.loads((out_dir / "e1.json").read_text(encoding="utf-8"))
        assert payload["experiment"] == "E1"
        assert payload["scale"] == "smoke"
        assert payload["seeds"] == [11]
        assert payload["backend"] == {"backend": "serial"}
        assert payload["elapsed_seconds"] > 0
        assert payload["rows"] and payload["verdicts"]
        rendered = capsys.readouterr().out
        assert "E1: Throughput on batch arrivals" in rendered

    def test_run_processes_backend_with_cache(self, tmp_path):
        out_dir = tmp_path / "results"
        cache_dir = tmp_path / "cache"
        args = [
            "run", "e1",
            "--scale", "smoke",
            "--seeds", "11",
            "--backend", "processes",
            "--workers", "2",
            "--cache-dir", str(cache_dir),
            "--out", str(out_dir),
        ]
        assert main(args) == 0
        first = json.loads((out_dir / "e1.json").read_text(encoding="utf-8"))
        assert first["backend"]["inner"] == {"backend": "processes", "workers": 2}
        assert first["rows"]
        assert (cache_dir / "store.db").exists(), "cache store should exist"
        assert list((cache_dir / "artifacts").rglob("*.pkl")), (
            "cache should be populated"
        )
        # Second invocation hits the cache and must reproduce the same rows.
        assert main(args) == 0
        second = json.loads((out_dir / "e1.json").read_text(encoding="utf-8"))
        assert second["rows"] == first["rows"]

    def test_run_vector_backend(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run", "e1",
                "--scale", "smoke",
                "--seeds", "11,23",
                "--backend", "vector",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads((out_dir / "e1.json").read_text(encoding="utf-8"))
        backend = payload["backend"]
        assert backend["backend"] == "vector"
        # Since the sensing-tier kernels, every E1 protocol (baselines AND
        # the sensing protocols) runs on the lockstep engine: no fallback.
        assert backend["vectorized_jobs"] > 0
        assert backend["fallback_jobs"] == 0
        assert backend["mega_batches"] > 0
        assert backend["mega_batches"] <= backend["vector_groups"]
        assert backend["fallback"]["backend"] == "serial"
        assert payload["rows"] and payload["verdicts"]

    def test_backend_counters_attributed_per_experiment(self, tmp_path):
        out_dir = tmp_path / "results"
        code = main(
            [
                "run", "e1", "e7",
                "--scale", "smoke",
                "--backend", "vector",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        e1 = json.loads((out_dir / "e1.json").read_text(encoding="utf-8"))
        e7 = json.loads((out_dir / "e7.json").read_text(encoding="utf-8"))
        # Counters are attributed per experiment: E7's three low-sensing
        # jammer groups must not inherit E1's twelve vectorized jobs.
        assert e7["backend"]["vectorized_jobs"] == 3
        assert e7["backend"]["fallback_jobs"] == 0
        assert e1["backend"]["vectorized_jobs"] == 12

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e42"])

    def test_bad_seeds_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e1", "--seeds", "one,two"])


class TestScenario:
    def test_scenario_list_json(self, capsys):
        assert main(["scenario", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["scenarios"]) >= 10

    def test_scenario_show_includes_vector_support(self, capsys):
        assert main(["scenario", "show", "onoff-jamming"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == "onoff-jamming"
        assert payload["vector_support"]["binary-exponential"] == "vectorizable"
        # The sensing tier vectorizes too since the sensing-vector kernels.
        assert payload["vector_support"]["low-sensing"] == "vectorizable"
        # Reactive scenarios vectorize too since the lockstep feedback loop.
        assert main(["scenario", "show", "reactive-starvation"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for reason in payload["vector_support"].values():
            assert reason == "vectorizable"

    def test_scenario_show_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "show", "no-such-scenario"])

    def test_scenario_run_writes_json_report(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(
            [
                "scenario", "run", "budget-starved-jammer",
                "--scale", "smoke",
                "--seeds", "11",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads(
            (out_dir / "scenario-budget-starved-jammer.json").read_text(
                encoding="utf-8"
            )
        )
        assert payload["experiment"] == "budget-starved-jammer"
        assert payload["scenario"]["id"] == "budget-starved-jammer"
        assert payload["seeds"] == [11]
        assert payload["scale"] == "smoke"
        assert len(payload["content_hash"]) == 64
        assert payload["rows"] and payload["verdicts"]
        rendered = capsys.readouterr().out
        assert "budget-starved-jammer" in rendered

    def test_scenario_run_vector_backend_reports_split(self, tmp_path):
        from repro.dynamics import DEFAULT_WINDOW
        from repro.scenarios.spec import resolve_scenario

        out_dir = tmp_path / "results"
        code = main(
            [
                "scenario", "run", "ramp-down-jamming",
                "--scale", "smoke",
                "--backend", "vector",
                "--dynamics",
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        payload = json.loads(
            (out_dir / "scenario-ramp-down-jamming.json").read_text(encoding="utf-8")
        )
        backend = payload["backend"]
        assert backend["backend"] == "vector"
        assert backend["dynamics_window"] == DEFAULT_WINDOW
        # All of ramp-down-jamming's protocols (low-sensing included) ride
        # the schedule-aware vector kernels now.
        assert backend["vectorized_jobs"] > 0
        assert backend["fallback_jobs"] == 0
        # The report names the scenario, whichever backend ran it.
        assert payload["content_hash"] == (
            resolve_scenario("ramp-down-jamming").content_hash()
        )
        assert payload["rows"]
        assert payload["elapsed_seconds"] > 0

    def test_scenario_run_vector_backend_warns_on_majority_fallback(
        self, tmp_path, capsys
    ):
        path = tmp_path / "replayed.json"
        path.write_text(
            json.dumps(
                {
                    "id": "cli-replayed-scenario",
                    "title": "Replayed arrivals (stays on the scalar engine)",
                    "protocols": ["binary-exponential"],
                    "max_slots": 400,
                    "replications": 2,
                    "arrivals": {"kind": "trace", "counts": [6, 0, 0]},
                }
            ),
            encoding="utf-8",
        )
        code = main(
            ["scenario", "run", str(path), "--scale", "smoke", "--backend", "vector"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning:" in out
        assert "fall back to the serial engine" in out
        assert "TraceArrivals" in out

    def test_scenario_run_vector_backend_no_warning_when_vectorized(
        self, tmp_path, capsys
    ):
        code = main(
            [
                "scenario", "run", "ramp-down-jamming",
                "--scale", "smoke",
                "--backend", "vector",
            ]
        )
        assert code == 0
        assert "warning:" not in capsys.readouterr().out

    def test_scenario_run_from_file(self, tmp_path, capsys):
        path = tmp_path / "mine.json"
        path.write_text(
            json.dumps(
                {
                    "id": "cli-file-scenario",
                    "title": "CLI file scenario",
                    "protocols": ["binary-exponential"],
                    "max_slots": 400,
                    "arrivals": {"kind": "batch", "n": 8},
                }
            )
        )
        assert main(["scenario", "run", str(path), "--scale", "smoke", "--seeds", "3"]) == 0
        assert "cli-file-scenario" in capsys.readouterr().out

    def test_scenario_run_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "run", "no-such-scenario"])

    def test_scenario_run_conflicting_duplicate_ids_rejected(self, tmp_path, capsys):
        definition = {
            "id": "dup",
            "title": "Duplicate",
            "protocols": ["binary-exponential"],
            "max_slots": 400,
            "arrivals": {"kind": "batch", "n": 5},
        }
        first = tmp_path / "a.json"
        first.write_text(json.dumps(definition))
        second = tmp_path / "b.json"
        second.write_text(json.dumps({**definition, "max_slots": 500}))
        with pytest.raises(SystemExit):
            main(["scenario", "run", str(first), str(second), "--scale", "smoke"])
        assert "requested twice" in capsys.readouterr().err

    def test_unwritable_out_dir_fails_before_running(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "e1", "--scale", "smoke", "--out", "/proc/nope/results"])
        assert "cannot create --out" in capsys.readouterr().err


class TestCampaignCli:
    def test_run_status_show_roundtrip(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        args = [
            "campaign", "run", "onoff-jamming",
            "--scale", "smoke",
            "--store", store,
            "--id", "c1",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "[c1] complete" in out

        assert main(["campaign", "status", "--store", store, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["campaigns"][0]["campaign_id"] == "c1"
        assert payload["campaigns"][0]["status"] == "complete"
        assert len(payload["store_fingerprint"]) == 64
        assert main(["campaign", "status", "--store", store]) == 0
        assert "over 2 unit(s)" in capsys.readouterr().out

        assert main(["campaign", "show", "c1", "--store", store, "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["campaign"]["campaign_id"] == "c1"
        assert shown["rows"]
        assert shown["store_fingerprint"] == payload["store_fingerprint"]

    def test_interrupt_then_resume_cli(self, tmp_path, capsys):
        from repro.campaigns import CampaignInterrupted, start_campaign
        from repro.scenarios.spec import resolve_scenario
        from repro.store import ResultsStore

        store = str(tmp_path / "store")
        with ResultsStore(store) as opened:
            with pytest.raises(CampaignInterrupted, match="after 1 unit"):
                start_campaign(
                    opened,
                    resolve_scenario("onoff-jamming"),
                    scale="smoke",
                    campaign_id="c1",
                    checkpoint_every=1,
                    fail_after_units=1,
                )
        assert main(["campaign", "resume", "c1", "--store", store]) == 0
        assert "[c1] complete" in capsys.readouterr().out

    def test_diff_exit_codes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        base = ["campaign", "run", "budget-starved-jammer", "--scale", "smoke",
                "--store", store]
        assert main(base + ["--id", "a"]) == 0
        assert main(base + ["--id", "b", "--seeds", "101,102"]) == 0
        capsys.readouterr()
        assert main(["campaign", "diff", "a", "b", "--store", store]) == 0
        assert "PASS" in capsys.readouterr().out


class TestCacheCli:
    def test_stats_and_prune(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert (
            main(
                [
                    "run", "e1",
                    "--scale", "smoke",
                    "--seeds", "11",
                    "--cache-dir", cache_dir,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs"] > 0
        assert stats["artifact_bytes"] > 0

        args = ["cache", "prune", "--cache-dir", cache_dir, "--max-bytes", "0"]
        assert main(args + ["--dry-run"]) == 0
        assert "would remove" in capsys.readouterr().out
        assert main(args) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["runs"] == 0 and stats["artifacts"] == 0


class TestEquivalence:
    def test_default_core_passes(self, capsys):
        code = main(["equivalence", "--replications", "6", "--batch-sizes", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all configurations passed" in out
        assert "binary-exponential" in out

    def test_scenario_mode_passes(self, capsys):
        code = main(
            [
                "equivalence",
                "--scenario", "ramp-down-jamming",
                "--scale", "smoke",
                "--replications", "8",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "ramp-down-jamming [binary-exponential]" in out

    def test_reactive_scenario_passes_on_the_vector_path(self, capsys):
        code = main(
            ["equivalence", "--scenario", "reactive-starvation", "--scale", "smoke"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reactive-starvation [low-sensing]" in out
        assert "all configurations passed" in out

    def test_scenario_without_vectorizable_group_rejected(self, tmp_path):
        path = tmp_path / "replayed.json"
        path.write_text(
            json.dumps(
                {
                    "id": "equivalence-replayed",
                    "title": "Replayed arrivals (never vectorizes)",
                    "protocols": ["binary-exponential"],
                    "max_slots": 400,
                    "replications": 2,
                    "arrivals": {"kind": "trace", "counts": [6, 0, 0]},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(SystemExit):
            main(["equivalence", "--scenario", str(path), "--scale", "smoke"])

    def test_bad_replications_rejected(self):
        with pytest.raises(SystemExit):
            main(["equivalence", "--replications", "0"])

    def test_bad_batch_sizes_rejected(self, capsys):
        for raw in ("-5", "0", "fifty"):
            with pytest.raises(SystemExit):
                main(["equivalence", "--batch-sizes", raw])
            assert "--batch-sizes" in capsys.readouterr().err
