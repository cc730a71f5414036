"""Tests for the scenario loader, catalog, and runner."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.adversary.composite import CompositeAdversary
from repro.adversary.scheduled import ScheduledArrivals, ScheduledJamming
from repro.exec import ResultCacheBackend, SerialBackend, VectorBackend
from repro.scenarios.catalog import builtin_scenarios, get_scenario, scenario_ids
from repro.scenarios.runner import (
    SMOKE_MAX_SLOTS,
    build_plan,
    run_scenario,
    scenario_max_slots,
    scenario_seeds,
)
from repro.scenarios.spec import (
    Scenario,
    ScenarioError,
    load_scenario_file,
    resolve_scenario,
    scenario_from_dict,
)

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples" / "scenarios"


def minimal_definition(**overrides) -> dict:
    definition = {
        "id": "unit-test",
        "title": "Unit-test scenario",
        "protocols": ["binary-exponential"],
        "max_slots": 500,
        "replications": 2,
        "arrivals": {"kind": "batch", "n": 10},
    }
    definition.update(overrides)
    return definition


class TestValidation:
    def test_minimal_definition_parses(self):
        scenario = scenario_from_dict(minimal_definition())
        assert scenario.scenario_id == "unit-test"
        assert scenario.jamming == {"kind": "none"}  # normalised default
        assert scenario.protocols == ("binary-exponential",)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unexpected keys"):
            scenario_from_dict(minimal_definition(bogus=1))

    def test_missing_required_key_rejected(self):
        definition = minimal_definition()
        del definition["arrivals"]
        with pytest.raises(ScenarioError, match="missing required"):
            scenario_from_dict(definition)

    def test_bad_id_rejected(self):
        with pytest.raises(ScenarioError, match="slug"):
            scenario_from_dict(minimal_definition(id="Not A Slug"))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ScenarioError, match="unknown protocol"):
            scenario_from_dict(minimal_definition(protocols=["warp-drive"]))

    def test_duplicate_protocol_rejected(self):
        # Per-protocol verdicts and support maps are keyed by name, so a
        # duplicate would silently shadow its twin.
        with pytest.raises(ScenarioError, match="duplicate protocol"):
            scenario_from_dict(
                minimal_definition(
                    protocols=["binary-exponential", "binary-exponential"]
                )
            )

    def test_unknown_component_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown kind"):
            scenario_from_dict(
                minimal_definition(arrivals={"kind": "telepathy"})
            )

    def test_component_without_kind_rejected(self):
        with pytest.raises(ScenarioError, match="missing 'kind'"):
            scenario_from_dict(minimal_definition(arrivals={"n": 10}))

    def test_bad_component_parameters_surface_at_load(self):
        with pytest.raises(ScenarioError, match="invalid arrivals"):
            scenario_from_dict(minimal_definition(arrivals={"kind": "batch", "n": -1}))
        with pytest.raises(ScenarioError, match="invalid jamming"):
            scenario_from_dict(
                minimal_definition(jamming={"kind": "bernoulli", "probability": 2.0})
            )

    def test_unknown_component_kwarg_rejected(self):
        with pytest.raises(ScenarioError, match="invalid arrivals"):
            scenario_from_dict(
                minimal_definition(arrivals={"kind": "batch", "n": 5, "warp": 9})
            )

    def test_empty_phase_list_rejected(self):
        with pytest.raises(ScenarioError, match="at least one phase"):
            scenario_from_dict(minimal_definition(arrivals={"phases": []}))

    def test_open_ended_phase_must_be_last(self):
        with pytest.raises(ScenarioError, match="invalid jamming"):
            scenario_from_dict(
                minimal_definition(
                    jamming={
                        "phases": [
                            {"kind": "none"},
                            {"kind": "periodic", "period": 2, "duration": 10},
                        ]
                    }
                )
            )

    def test_schedule_with_extra_keys_rejected(self):
        with pytest.raises(ScenarioError, match="only 'phases'"):
            scenario_from_dict(
                minimal_definition(
                    arrivals={"phases": [{"kind": "none"}], "kind": "batch"}
                )
            )

    def test_non_integer_scale_fields_rejected(self):
        with pytest.raises(ScenarioError, match="max_slots"):
            scenario_from_dict(minimal_definition(max_slots="lots"))
        with pytest.raises(ScenarioError, match="replications"):
            scenario_from_dict(minimal_definition(replications=0))


class TestRoundTripAndIdentity:
    def test_dict_round_trip(self):
        scenario = scenario_from_dict(minimal_definition())
        assert scenario_from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip(self):
        scenario = scenario_from_dict(
            minimal_definition(
                jamming={
                    "phases": [
                        {"kind": "bernoulli", "probability": 0.5, "duration": 100},
                        {"kind": "none"},
                    ]
                }
            )
        )
        payload = json.dumps(scenario.to_dict())
        assert scenario_from_dict(json.loads(payload)) == scenario

    def test_content_hash_is_stable_and_sensitive(self):
        first = scenario_from_dict(minimal_definition())
        second = scenario_from_dict(minimal_definition())
        changed = scenario_from_dict(minimal_definition(max_slots=501))
        assert first.content_hash() == second.content_hash()
        assert first.content_hash() != changed.content_hash()
        retitled = scenario_from_dict(minimal_definition(title="Other title"))
        assert first.content_hash() != retitled.content_hash()

    def test_adversary_factory_builds_schedules(self):
        scenario = scenario_from_dict(
            minimal_definition(
                arrivals={
                    "phases": [
                        {"kind": "batch", "n": 5, "duration": 50},
                        {"kind": "none"},
                    ]
                },
                jamming={
                    "phases": [
                        {"kind": "periodic", "period": 3, "duration": 30},
                        {"kind": "none"},
                    ]
                },
            )
        )
        adversary = scenario.adversary_factory().build()
        assert isinstance(adversary, CompositeAdversary)
        assert isinstance(adversary.arrival_process, ScheduledArrivals)
        assert isinstance(adversary.jammer, ScheduledJamming)
        # Factories build fresh state per call.
        assert scenario.adversary_factory().build() is not adversary


class TestFileLoading:
    def test_toml_file_loads(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            "\n".join(
                [
                    'id = "from-toml"',
                    'title = "From TOML"',
                    'protocols = ["binary-exponential"]',
                    "max_slots = 400",
                    "[arrivals]",
                    'kind = "batch"',
                    "n = 8",
                    "[[jamming.phases]]",
                    'kind = "periodic"',
                    "period = 2",
                    "duration = 50",
                    "[[jamming.phases]]",
                    'kind = "none"',
                ]
            ),
            encoding="utf-8",
        )
        scenario = load_scenario_file(path)
        assert scenario.scenario_id == "from-toml"
        assert scenario_from_dict(scenario.to_dict()) == scenario

    def test_json_file_loads(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_definition(id="from-json")))
        assert load_scenario_file(path).scenario_id == "from-json"

    def test_shipped_examples_load(self):
        toml_scenario = load_scenario_file(EXAMPLES_DIR / "pulsed-jamming.toml")
        json_scenario = load_scenario_file(EXAMPLES_DIR / "surge-release.json")
        assert toml_scenario.scenario_id == "pulsed-jamming"
        assert json_scenario.scenario_id == "surge-release"
        for scenario in (toml_scenario, json_scenario):
            assert scenario_from_dict(scenario.to_dict()) == scenario

    def test_unsupported_suffix_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("id: nope")
        with pytest.raises(ScenarioError, match="unsupported scenario format"):
            load_scenario_file(path)

    def test_invalid_toml_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text("id = ")
        with pytest.raises(ScenarioError, match="invalid TOML"):
            load_scenario_file(path)

    def test_component_errors_name_the_source_file(self, tmp_path):
        path = tmp_path / "bad-kind.json"
        path.write_text(
            json.dumps(minimal_definition(id="bad-kind", arrivals={"kind": "bogus"}))
        )
        with pytest.raises(ScenarioError, match=r"bad-kind\.json.*unknown kind"):
            load_scenario_file(path)

    def test_resolve_prefers_files_and_falls_back_to_catalog(self, tmp_path):
        assert resolve_scenario("onoff-jamming").scenario_id == "onoff-jamming"
        path = tmp_path / "mine.json"
        path.write_text(json.dumps(minimal_definition(id="mine")))
        assert resolve_scenario(path).scenario_id == "mine"
        with pytest.raises(ScenarioError, match="unknown scenario"):
            resolve_scenario("no-such-scenario")

    def test_stray_local_file_cannot_shadow_a_catalog_name(self, tmp_path, monkeypatch):
        # A suffix-less file named like a catalog scenario in the cwd must
        # not hijack the name (e.g. debris from a redirected `scenario show`).
        (tmp_path / "onoff-jamming").write_text("not a scenario")
        monkeypatch.chdir(tmp_path)
        assert resolve_scenario("onoff-jamming").scenario_id == "onoff-jamming"


class TestCatalog:
    def test_catalog_has_at_least_ten_validated_scenarios(self):
        catalog = builtin_scenarios()
        assert len(catalog) >= 10
        for scenario_id, scenario in catalog.items():
            assert scenario.scenario_id == scenario_id
            assert isinstance(scenario, Scenario)
            assert scenario.protocols
            # Round-trip identity is part of the catalog contract.
            assert scenario_from_dict(scenario.to_dict()) == scenario
            scenario.adversary_factory().build()

    def test_catalog_covers_schedules_and_vectorizable_cores(self):
        catalog = builtin_scenarios()
        scheduled = [
            s
            for s in catalog.values()
            if "phases" in s.arrivals or "phases" in s.jamming
        ]
        assert len(scheduled) >= 5
        vectorizable = [
            s
            for s in catalog.values()
            if build_plan(s, scale="smoke").vector_summary()["vectorizable_specs"] > 0
        ]
        assert len(vectorizable) >= 5

    def test_get_scenario_names_known_ids_on_miss(self):
        assert get_scenario("ramp-arrivals").scenario_id == "ramp-arrivals"
        with pytest.raises(KeyError, match="known:"):
            get_scenario("nope")

    def test_scenario_ids_sorted(self):
        ids = scenario_ids()
        assert ids == sorted(ids)


class TestRunner:
    def test_seed_and_slot_scaling(self):
        scenario = scenario_from_dict(
            minimal_definition(replications=4, base_seed=100, max_slots=50_000)
        )
        assert scenario_seeds(scenario, "default") == (100, 101, 102, 103)
        assert scenario_seeds(scenario, "smoke") == (100, 101)
        assert scenario_seeds(scenario, "full") == tuple(range(100, 108))
        assert scenario_seeds(scenario, "default", seeds=[7]) == (7,)
        assert scenario_max_slots(scenario, "default") == 50_000
        assert scenario_max_slots(scenario, "smoke") == SMOKE_MAX_SLOTS

    def test_build_plan_one_group_per_protocol(self):
        scenario = get_scenario("ramp-down-jamming")
        plan = build_plan(scenario, scale="smoke")
        assert len(plan.groups) == len(scenario.protocols)
        for group in plan.groups:
            assert dict(group.columns)["scenario"] == "ramp-down-jamming"

    @pytest.mark.parametrize("scenario_id", scenario_ids())
    def test_every_catalog_scenario_smoke_runs_on_both_backends(self, scenario_id):
        scenario = get_scenario(scenario_id)
        for backend in (SerialBackend(), VectorBackend()):
            report = run_scenario(
                scenario, scale="smoke", seeds=[11], backend=backend
            )
            assert len(report.rows) == len(scenario.protocols)
            for row in report.rows:
                assert row["scenario"] == scenario_id
                assert 0.0 <= row["throughput"] <= 1.0
            assert any("content hash" in note for note in report.notes)

    def test_report_names_fallback_reasons(self):
        scenario = scenario_from_dict(
            minimal_definition(
                arrivals={"kind": "trace", "counts": [6, 0, 0]},
            )
        )
        report = run_scenario(
            scenario, scale="smoke", seeds=[11], backend=SerialBackend()
        )
        assert any("scalar fallback" in note for note in report.notes)

    def test_reactive_catalog_scenario_reports_full_vectorization(self):
        report = run_scenario(
            get_scenario("reactive-starvation"),
            scale="smoke",
            seeds=[11],
            backend=SerialBackend(),
        )
        vector_notes = [note for note in report.notes if "vectorizable" in note]
        assert vector_notes, report.notes
        vectorized, _, total = vector_notes[0].split()[1].partition("/")
        assert vectorized == total
        assert not any("scalar fallback" in note for note in report.notes)

    def test_scenario_runs_hit_the_result_cache(self, tmp_path):
        scenario = get_scenario("budget-starved-jammer")
        first = ResultCacheBackend(tmp_path, inner=SerialBackend())
        report_a = run_scenario(scenario, scale="smoke", backend=first)
        assert first.misses == len(build_plan(scenario, scale="smoke"))
        assert first.hits == 0
        second = ResultCacheBackend(tmp_path, inner=SerialBackend())
        report_b = run_scenario(scenario, scale="smoke", backend=second)
        assert second.hits == len(build_plan(scenario, scale="smoke"))
        assert second.misses == 0
        assert report_a.rows == report_b.rows
