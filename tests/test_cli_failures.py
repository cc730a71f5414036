"""CLI failure paths must exit non-zero with a one-line diagnostic.

Every case here used to be (or could become) a traceback or a silent
success; the contract is: bad input → non-zero exit, a single
human-readable error line on stderr, and **no traceback** — scripts and CI
wrappers branch on the exit code and surface stderr to humans.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def _expect_error(capsys, argv, *needles):
    """Run ``argv``, assert non-zero SystemExit and a clean diagnostic."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    code = excinfo.value.code
    assert code not in (0, None), f"{argv} exited {code}"
    err = capsys.readouterr().err
    assert "Traceback" not in err, f"{argv} leaked a traceback:\n{err}"
    for needle in needles:
        assert needle in err, f"{argv}: expected {needle!r} in stderr:\n{err}"
    return err


class TestUnknownIds:
    def test_unknown_experiment_id(self, capsys):
        _expect_error(capsys, ["run", "e42"], "unknown experiment id", "e42")

    def test_unknown_scenario_id_on_run(self, capsys):
        _expect_error(
            capsys, ["scenario", "run", "no-such"], "unknown scenario", "no-such"
        )

    def test_unknown_scenario_id_on_show(self, capsys):
        _expect_error(capsys, ["scenario", "show", "no-such"], "unknown scenario")

    def test_unknown_backend(self, capsys):
        _expect_error(
            capsys,
            ["run", "e1", "--backend", "threads"],
            "--backend",
        )


class TestMalformedScenarioFiles:
    def test_malformed_toml(self, tmp_path, capsys):
        path = tmp_path / "broken.toml"
        path.write_text("id = [unclosed", encoding="utf-8")
        _expect_error(
            capsys, ["scenario", "run", str(path)], "invalid TOML", path.name
        )

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        _expect_error(
            capsys, ["scenario", "run", str(path)], "invalid JSON", path.name
        )

    def test_valid_json_bad_schema(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"id": "x"}), encoding="utf-8")
        _expect_error(
            capsys, ["scenario", "run", str(path)], "missing required keys"
        )

    def test_unknown_component_kind(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "id": "bad-kind",
                    "title": "Bad",
                    "protocols": ["binary-exponential"],
                    "arrivals": {"kind": "martian"},
                }
            ),
            encoding="utf-8",
        )
        _expect_error(capsys, ["scenario", "run", str(path)], "unknown kind")

    def test_missing_scenario_file(self, capsys):
        _expect_error(
            capsys,
            ["scenario", "run", "/does/not/exist.toml"],
            "cannot read scenario file",
        )


class TestUnwritablePaths:
    def test_unwritable_out_dir_on_run(self, capsys):
        _expect_error(
            capsys,
            ["run", "e1", "--scale", "smoke", "--out", "/proc/nope/results"],
            "cannot create --out",
        )

    def test_unwritable_out_dir_on_scenario_run(self, capsys):
        _expect_error(
            capsys,
            [
                "scenario", "run", "onoff-jamming",
                "--scale", "smoke",
                "--out", "/proc/nope/results",
            ],
            "cannot create --out",
        )


def _empty_store(tmp_path):
    from repro.store import ResultsStore

    root = tmp_path / "s"
    ResultsStore(root).close()
    return str(root)


class TestRemovedOptions:
    """``campaign diff`` compares two campaigns; wall-clock drift is
    ``perf regress``'s job, so the old timing options are unknown, and
    ``campaign diff --trajectories`` replaced ``dynamics compare``."""

    @pytest.mark.parametrize(
        "option",
        [["--bench", "BENCH.json"], ["--bench-id", "E1"], ["--factor", "1.5"]],
        ids=["bench", "bench-id", "factor"],
    )
    def test_diff_timing_option_is_a_usage_error(self, tmp_path, capsys, option):
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "diff", "a", "b", "--store", _empty_store(tmp_path),
                  *option])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {' '.join(option)}" in err
        assert "Traceback" not in err

    def test_compare_subcommand_of_dynamics_is_a_usage_error(self, tmp_path, capsys):
        """``campaign diff --trajectories`` is the one trajectory gate."""
        with pytest.raises(SystemExit) as excinfo:
            main(["dynamics", "compare", "a", "b", "--store", _empty_store(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'compare'" in err
        assert "Traceback" not in err


class TestCampaignAndCacheFailures:
    def test_resume_unknown_campaign(self, tmp_path, capsys):
        _expect_error(
            capsys,
            ["campaign", "resume", "ghost", "--store", _empty_store(tmp_path)],
            "unknown campaign",
        )

    def test_resume_workers_on_a_vector_campaign_exits_2(self, tmp_path, capsys):
        """``--workers`` on a campaign stored with another backend than
        ``processes`` is a usage error, as it is on ``campaign run``, and
        no unit runs."""
        from repro.campaigns import CampaignInterrupted, start_campaign
        from repro.scenarios.spec import resolve_scenario
        from repro.store import ResultsStore

        store = str(tmp_path / "store")
        with ResultsStore(store) as opened:
            with pytest.raises(CampaignInterrupted):
                start_campaign(
                    opened,
                    resolve_scenario("onoff-jamming"),
                    scale="smoke",
                    backend_name="vector",
                    campaign_id="v",
                    checkpoint_every=1,
                    fail_after_units=1,
                )
            recorded = opened.campaign_run_count("v")
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "resume", "v", "--store", store, "--workers", "3"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "workers only apply to the processes backend" in err
        assert "vector" in err
        with ResultsStore(store) as opened:
            assert opened.campaign_run_count("v") == recorded
            assert opened.get_campaign("v")["status"] != "complete"

    def test_show_unknown_campaign(self, tmp_path, capsys):
        _expect_error(
            capsys,
            ["campaign", "show", "ghost", "--store", _empty_store(tmp_path)],
            "unknown campaign",
        )

    def test_diff_needs_second_campaign_or_bench(self, tmp_path, capsys):
        """CAMPAIGN_B is a required positional: without it, a usage error."""
        with pytest.raises(SystemExit) as excinfo:
            main(["campaign", "diff", "a", "--store", _empty_store(tmp_path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: CAMPAIGN_B" in err
        assert "Traceback" not in err

    def test_campaign_run_unknown_scenario(self, tmp_path, capsys):
        _expect_error(
            capsys,
            ["campaign", "run", "no-such", "--store", str(tmp_path / "s")],
            "unknown scenario",
        )

    def test_read_side_commands_require_an_existing_store(self, tmp_path, capsys):
        """A mistyped --store/--cache-dir must error loudly, not create an
        empty store and report zero of everything."""
        missing = tmp_path / "typo-dir"
        for argv in (
            ["campaign", "status", "--store", str(missing)],
            ["campaign", "resume", "x", "--store", str(missing)],
            ["campaign", "show", "x", "--store", str(missing)],
        ):
            _expect_error(capsys, argv, "no results store")
            assert not missing.exists(), f"{argv} created the store"
        for argv in (
            ["cache", "stats", "--cache-dir", str(missing)],
            ["cache", "prune", "--cache-dir", str(missing), "--max-bytes", "0"],
        ):
            _expect_error(capsys, argv, "no cache directory")
            assert not missing.exists(), f"{argv} created the cache"

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "e1", "--scale", "smoke", "--seeds", "11", "--cache-dir"],
            ["cache", "stats", "--cache-dir"],
        ],
        ids=["run", "cache-stats"],
    )
    def test_cache_dir_store_of_another_schema(self, tmp_path, capsys, argv):
        """A --cache-dir store this code cannot open is a usage error
        naming the store, as it is for every --store command."""
        from repro.store import ResultsStore
        from repro.store.store import STORE_SCHEMA_VERSION

        root = tmp_path / "old-store"
        with ResultsStore(root) as store:
            with store._connection:
                store._connection.execute(
                    "UPDATE meta SET value = ? WHERE key = 'schema'",
                    (str(STORE_SCHEMA_VERSION + 1),),
                )
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [str(root)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"cannot open results store at {str(root)!r}" in err
        assert "schema" in err

    def test_campaign_run_typo_scenario_leaves_no_store_behind(
        self, tmp_path, capsys
    ):
        store = tmp_path / "fresh-store"
        _expect_error(
            capsys,
            ["campaign", "run", "onoff-jaming", "--store", str(store)],
            "unknown scenario",
        )
        assert not store.exists(), "typo'd scenario run created an empty store"

    def test_campaign_run_store_on_unwritable_path(self, capsys):
        _expect_error(
            capsys,
            ["campaign", "run", "onoff-jamming", "--store", "/proc/nope/store"],
            "cannot open results store",
        )

    def test_checkpoint_every_zero_rejected(self, tmp_path, capsys):
        store = _empty_store(tmp_path)
        for sub in (
            ["campaign", "run", "onoff-jamming"],
            ["campaign", "resume", "whatever"],
        ):
            _expect_error(
                capsys,
                sub + ["--store", store, "--checkpoint-every", "0"],
                "--checkpoint-every must be at least 1",
            )

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["perf", "record", "--scale", "bogus"], "invalid choice: 'bogus'"),
            (
                ["perf", "record", "--backend", "processes", "--workers", "0"],
                "--workers must be at least 1",
            ),
            (
                ["campaign", "run", "--backend", "processes", "--workers", "0"],
                "--workers must be at least 1",
            ),
            (
                ["campaign", "run", "--backend", "serial", "--workers", "3"],
                "--workers only applies to --backend processes",
            ),
            (
                ["perf", "record", "--backend", "vector", "--workers", "2"],
                "--workers only applies to --backend processes",
            ),
        ],
        ids=[
            "perf-bad-scale",
            "perf-zero-workers",
            "campaign-zero-workers",
            "campaign-serial-workers",
            "perf-vector-workers",
        ],
    )
    def test_bad_run_options_exit_2_before_the_store_opens(
        self, tmp_path, capsys, argv, needle
    ):
        store = tmp_path / "fresh-store"
        command, subcommand, *options = argv
        with pytest.raises(SystemExit) as excinfo:
            main([command, subcommand, "onoff-jamming", *options, "--store", str(store)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert needle in err
        assert not store.exists(), f"{argv} created the store"

    def test_cache_prune_without_criteria(self, tmp_path, capsys):
        _expect_error(
            capsys,
            ["cache", "prune", "--cache-dir", _empty_store(tmp_path)],
            "--older-than-days and/or --max-bytes",
        )
