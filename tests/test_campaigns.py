"""Tests for the resumable campaign subsystem (`repro.campaigns`)."""

from __future__ import annotations

import json

import pytest

from repro.campaigns import (
    CampaignError,
    CampaignInterrupted,
    campaign_report,
    campaign_status_rows,
    diff_campaigns,
    resume_campaign,
    start_campaign,
)
from repro.campaigns.runner import _partition_units
from repro.exec import SCALAR_LAYOUT, ResultCacheBackend, VectorBackend, make_backend
from repro.scenarios.runner import build_plan
from repro.scenarios.spec import scenario_from_dict
from repro.sim.vector import RESULT_LAYOUT, VectorSimulator
from repro.store import ResultsStore

#: A fast mixed-protocol scenario.  Every protocol here vectorizes (the
#: sensing tier included, since the sensing-vector kernels), so a vector
#: campaign cuts one lockstep unit per protocol group while a serial
#: campaign cuts per-run scalar units; SCALAR_FALLBACK below covers the
#: scalar-unit path *under* the vector backend (replayed arrival traces
#: have no vector schedule, so every group stays on the scalar engine).
MIXED = {
    "id": "campaign-mixed",
    "title": "Campaign test scenario",
    "protocols": ["binary-exponential", "low-sensing", "sawtooth"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "batch", "n": 12},
}

SCALAR_FALLBACK = {
    "id": "campaign-replayed",
    "title": "Replayed-trace campaign scenario (serial fallback on vector backend)",
    "protocols": ["binary-exponential", "low-sensing"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "trace", "counts": [12, 0, 0, 0]},
}

VECTOR_ONLY = {
    "id": "campaign-vec",
    "title": "Vector-only campaign scenario",
    "protocols": ["binary-exponential", "polynomial"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "batch", "n": 12},
}


def _scenario(definition=MIXED):
    return scenario_from_dict(definition)


def _unit_count(definition, backend_name, checkpoint_every=2):
    scenario = _scenario(definition)
    plan = build_plan(scenario, "smoke")
    units, _ = _partition_units(plan, make_backend(backend_name), checkpoint_every)
    return len(units)


class TestRunAndResume:
    def test_complete_campaign_records_everything(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            outcome = start_campaign(
                store, _scenario(), scale="smoke", backend_name="serial"
            )
            assert outcome.status == "complete"
            assert outcome.total_runs == 6  # 3 protocols x 2 smoke seeds
            assert outcome.executed_runs == 6 and outcome.skipped_runs == 0
            rows = campaign_status_rows(store)
            assert len(rows) == 1
            assert rows[0]["status"] == "complete"
            assert rows[0]["runs_done"] == rows[0]["total_runs"] == 6
            assert store.stats()["runs_by_source"] == {"campaign": 6}

    def test_rerun_same_id_rejected_but_resume_is_noop(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            outcome = start_campaign(
                store, _scenario(), scale="smoke", backend_name="serial"
            )
            with pytest.raises(CampaignError, match="already exists"):
                start_campaign(
                    store, _scenario(), scale="smoke", backend_name="serial"
                )
            again = resume_campaign(store, outcome.campaign_id)
            assert again.status == "complete"
            assert again.executed_runs == 0
            assert again.skipped_runs == outcome.total_runs

    def test_unknown_backend_rejected(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignError, match="unknown campaign backend"):
                start_campaign(store, _scenario(), backend_name="threads")

    def test_invalid_workers_rejected_before_campaign_creation(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignError, match="workers must be positive"):
                start_campaign(
                    store,
                    _scenario(),
                    scale="smoke",
                    backend_name="processes",
                    workers=-2,
                )
            # No stranded 'running' campaign row was left behind.
            assert store.list_campaigns() == []

    def test_workers_off_the_processes_backend_rejected(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(
                CampaignError, match="workers only apply to the processes backend"
            ):
                start_campaign(
                    store,
                    _scenario(),
                    scale="smoke",
                    backend_name="vector",
                    workers=3,
                )
            assert store.list_campaigns() == []
            assert store.stats()["runs"] == 0

    def test_resume_rejects_zero_checkpoint_every(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignInterrupted):
                start_campaign(
                    store,
                    _scenario(),
                    scale="smoke",
                    backend_name="serial",
                    campaign_id="halted",
                    checkpoint_every=2,
                    fail_after_units=1,
                )
            recorded = store.campaign_run_count("halted")
            with pytest.raises(CampaignError, match="checkpoint_every must be at least 1"):
                resume_campaign(store, "halted", checkpoint_every=0)
            assert store.campaign_run_count("halted") == recorded
            assert store.get_campaign("halted")["status"] != "complete"

    def test_resume_unknown_campaign_rejected(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignError, match="unknown campaign"):
                resume_campaign(store, "nope")

    def test_resume_refuses_drifted_definition(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignInterrupted):
                start_campaign(
                    store,
                    _scenario(),
                    scale="smoke",
                    backend_name="serial",
                    campaign_id="drift",
                    checkpoint_every=2,
                    fail_after_units=1,
                )
            tampered = dict(MIXED, max_slots=999)
            with store._connection:
                store._connection.execute(
                    "UPDATE campaigns SET definition = ? WHERE campaign_id = 'drift'",
                    (json.dumps(tampered, sort_keys=True),),
                )
            with pytest.raises(CampaignError, match="content hash"):
                resume_campaign(store, "drift")

    @pytest.mark.parametrize("backend_name", ["serial", "vector"])
    def test_interrupt_anywhere_then_resume_is_bit_identical(
        self, tmp_path, backend_name
    ):
        """The acceptance criterion: kill after *every* possible unit
        commit, resume, and the store must fingerprint identically to an
        uninterrupted run on both the serial and vector backends."""
        units = _unit_count(MIXED, backend_name, checkpoint_every=1)
        assert units >= 3
        with ResultsStore(tmp_path / "reference") as reference:
            start_campaign(
                reference,
                _scenario(),
                scale="smoke",
                backend_name=backend_name,
                campaign_id="c",
                checkpoint_every=1,
            )
            expected = reference.fingerprint()
            expected_artifacts = sorted(
                path.name for path in reference.artifacts_dir.rglob("*.pkl")
            )
        for fail_after in range(1, units):
            root = tmp_path / f"interrupted-{backend_name}-{fail_after}"
            with ResultsStore(root) as store:
                with pytest.raises(CampaignInterrupted):
                    start_campaign(
                        store,
                        _scenario(),
                        scale="smoke",
                        backend_name=backend_name,
                        campaign_id="c",
                        checkpoint_every=1,
                        fail_after_units=fail_after,
                    )
                assert store.get_campaign("c")["status"] == "running"
                outcome = resume_campaign(store, "c", checkpoint_every=1)
                assert outcome.status == "complete"
                assert outcome.skipped_runs > 0
                assert store.fingerprint() == expected, (
                    f"{backend_name} store diverged when killed after "
                    f"unit {fail_after}"
                )
                artifacts = sorted(
                    path.name for path in store.artifacts_dir.rglob("*.pkl")
                )
                assert artifacts == expected_artifacts

    def test_vector_campaign_stores_the_vector_layout(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            start_campaign(
                store,
                _scenario(VECTOR_ONLY),
                scale="smoke",
                backend_name="vector",
                campaign_id="v",
            )
            assert store.stats()["runs_by_layout"] == {RESULT_LAYOUT: 4}

    @pytest.mark.parametrize(
        "backend_name, old_layout",
        [
            ("vector", "batch-signature"),
            ("vector", "vector:3"),
            ("serial", "scalar"),
        ],
    )
    def test_units_stored_under_an_older_layout_are_recomputed(
        self, tmp_path, backend_name, old_layout
    ):
        """Earlier versions filed runs under other layouts: each vector unit
        under its batch signature ``vector:<64-hex>`` (coin-order version
        2), then vector runs under ``vector:3`` and scalar runs under
        ``scalar`` (results that stored per-slot series).  A campaign run
        now must recompute those runs, never serve or mix them in."""
        import hashlib

        scenario = _scenario(VECTOR_ONLY)
        plan = build_plan(scenario, "smoke")
        specs = plan.specs
        new_layout = RESULT_LAYOUT if backend_name == "vector" else SCALAR_LAYOUT
        with make_backend(backend_name) as backend:
            units, hashes = _partition_units(plan, backend, 8)
            results = backend.run(specs)
        with ResultsStore(tmp_path / "store") as store:
            for unit in units:
                layout = old_layout
                if old_layout == "batch-signature":
                    payload = json.dumps(
                        {"coins": 2, "specs": [hashes[i] for i in unit.indices]},
                        separators=(",", ":"),
                    )
                    layout = "vector:" + hashlib.sha256(payload.encode("utf-8")).hexdigest()
                assert unit.layout == new_layout != layout
                for index in unit.indices:
                    store.put_run(hashes[index], specs[index].seed, layout, results[index])
            outcome = start_campaign(
                store, scenario, scale="smoke", backend_name=backend_name, campaign_id="c"
            )
            assert outcome.executed_runs == outcome.total_runs
            assert outcome.skipped_runs == 0
            assert {row["backend_layout"] for row in store.campaign_run_rows("c")} == {
                new_layout
            }

    @pytest.mark.parametrize("stored_by", ["killed-campaign", "cache-sweep"])
    def test_partially_stored_vector_unit_runs_only_its_missing_runs(
        self, tmp_path, monkeypatch, stored_by
    ):
        """A vector result is a function of (spec, seed), so a vector unit
        holding some of its runs — from a kill between artifact writes, or
        from a ``--cache-dir`` sweep — executes only the rest, and the
        store ends up as an uninterrupted run's."""
        seeds = [1, 2, 3, 4]
        options = dict(scale="smoke", seeds=seeds, backend_name="vector", campaign_id="v")
        with ResultsStore(tmp_path / "reference") as reference:
            start_campaign(reference, _scenario(), **options)
            expected = reference.fingerprint()
        # Units run in protocol order (BEB, LSB, Sawtooth), four runs each;
        # the first run of the Sawtooth unit is already stored.
        stored = 9
        batch_sizes = []
        from_specs = VectorSimulator.from_specs

        def counting_from_specs(specs):
            batch_sizes.append(len(specs))
            return from_specs(specs)

        monkeypatch.setattr(VectorSimulator, "from_specs", counting_from_specs)
        with ResultsStore(tmp_path / "store") as store:
            if stored_by == "killed-campaign":
                put_run = store.put_run
                writes = []

                def put_run_then_die(*args, **kwargs):
                    if len(writes) == stored:
                        raise RuntimeError("killed between artifact writes")
                    writes.append(args)
                    return put_run(*args, **kwargs)

                monkeypatch.setattr(store, "put_run", put_run_then_die)
                with pytest.raises(RuntimeError, match="killed"):
                    start_campaign(store, _scenario(), **options)
                monkeypatch.setattr(store, "put_run", put_run)
                batch_sizes.clear()
                outcome = resume_campaign(store, "v")
            else:
                specs = build_plan(_scenario(), "smoke", seeds).specs
                cache = ResultCacheBackend(store.root, inner=VectorBackend())
                cache.run(specs[:stored])
                cache.close()
                batch_sizes.clear()
                outcome = start_campaign(store, _scenario(), **options)
            assert (outcome.executed_runs, outcome.skipped_runs) == (12 - stored, stored)
            assert batch_sizes == [3]
            assert store.fingerprint() == expected

    def test_processes_campaign_fingerprints_like_serial(self, tmp_path):
        """Pool-returned results pickle through an extra round trip, which
        reshuffles pickle's identity memo; artifact hashing must be a
        function of result content, not of which backend produced it."""
        with ResultsStore(tmp_path / "a") as a, ResultsStore(tmp_path / "b") as b:
            start_campaign(
                a,
                _scenario(),
                scale="smoke",
                backend_name="processes",
                workers=2,
                campaign_id="c",
            )
            start_campaign(
                b, _scenario(), scale="smoke", backend_name="serial", campaign_id="c"
            )
            assert a.fingerprint() == b.fingerprint()

    def test_scalar_and_vector_results_never_collide(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            start_campaign(
                store,
                _scenario(VECTOR_ONLY),
                scale="smoke",
                backend_name="serial",
                campaign_id="s",
            )
            start_campaign(
                store,
                _scenario(VECTOR_ONLY),
                scale="smoke",
                backend_name="vector",
                campaign_id="v",
            )
            by_layout = store.stats()["runs_by_layout"]
            assert by_layout[SCALAR_LAYOUT] == 4
            assert sum(v for k, v in by_layout.items() if k.startswith("vector:")) == 4

    def test_vector_campaign_with_reactive_scenario_cuts_scalar_units(self, tmp_path):
        """A reactive adversary keeps every group on the scalar engine, so a
        vector-backend campaign stores scalar-layout runs — and they are
        interchangeable with a serial campaign's (same fingerprint)."""
        with ResultsStore(tmp_path / "vector") as a, ResultsStore(
            tmp_path / "serial"
        ) as b:
            start_campaign(
                a,
                _scenario(SCALAR_FALLBACK),
                scale="smoke",
                backend_name="vector",
                campaign_id="c",
            )
            start_campaign(
                b,
                _scenario(SCALAR_FALLBACK),
                scale="smoke",
                backend_name="serial",
                campaign_id="c",
            )
            assert set(a.stats()["runs_by_layout"]) == {SCALAR_LAYOUT}
            assert a.fingerprint() == b.fingerprint()


def _stored(store):
    """The store's run artifacts by run key, and its trajectory rows."""
    runs = {
        (run.spec_hash, run.seed, run.backend_layout): run.artifact_hash
        for run in store.iter_runs()
    }
    trajectories = [
        {key: value for key, value in row.items() if key != "created_at"}
        for row in store.trajectory_rows()
    ]
    return runs, trajectories


class TestCampaignRunsOnItsBackend:
    @pytest.mark.parametrize("dynamics_window", [0, 64])
    @pytest.mark.parametrize("backend_name", ["serial", "processes", "vector"])
    def test_stores_what_the_backend_returns(
        self, tmp_path, backend_name, dynamics_window
    ):
        """A campaign runs its units on ``make_backend``'s backend, so it
        stores exactly the artifacts and trajectories that backend returns
        for the same plan, under the layouts it names."""
        scenario = _scenario()
        workers = 2 if backend_name == "processes" else None
        with ResultsStore(tmp_path / "campaign") as store:
            start_campaign(
                store,
                scenario,
                scale="smoke",
                backend_name=backend_name,
                workers=workers,
                dynamics_window=dynamics_window,
            )
            campaign = _stored(store)
        specs = build_plan(scenario, "smoke").specs
        with make_backend(
            backend_name, workers=workers, dynamics_window=dynamics_window
        ) as backend, ResultsStore(tmp_path / "direct") as store:
            for spec, result in zip(specs, backend.run(specs)):
                store.put_run(
                    spec.cache_key(), spec.seed, backend.result_layout(spec), result
                )
            direct = _stored(store)
        assert campaign == direct
        assert len(campaign[0]) == len(specs)
        assert len(campaign[1]) == (len(specs) if dynamics_window else 0)


class TestReportAndStatus:
    def test_campaign_report_aggregates_from_registry(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            outcome = start_campaign(
                store, _scenario(), scale="smoke", backend_name="serial"
            )
            report = campaign_report(store, outcome.campaign_id)
            assert len(report.rows) == 3
            protocols = {row["protocol"] for row in report.rows}
            assert protocols == {"binary-exponential", "low-sensing", "sawtooth"}
            for row in report.rows:
                assert row["replicates"] == 2
                assert row["scenario"] == "campaign-mixed"
                assert 0.0 <= row["throughput"] <= 1.0
                assert row["drained"] in (True, False)
            assert report.verdicts

    def test_report_unknown_campaign_rejected(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            with pytest.raises(CampaignError, match="unknown campaign"):
                campaign_report(store, "nope")

    def test_report_warns_when_registry_rows_are_missing(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            outcome = start_campaign(
                store, _scenario(), scale="smoke", backend_name="serial"
            )
            with store._connection:
                store._connection.execute(
                    "DELETE FROM runs WHERE rowid = "
                    "(SELECT rowid FROM runs ORDER BY rowid LIMIT 1)"
                )
            report = campaign_report(store, outcome.campaign_id)
            assert any("no registry row" in note for note in report.notes)


class TestDiff:
    def _campaign(self, store, definition, campaign_id, seeds=None):
        return start_campaign(
            store,
            _scenario(definition),
            scale="smoke",
            seeds=seeds,
            backend_name="serial",
            campaign_id=campaign_id,
        )

    def test_equivalent_campaigns_pass(self, tmp_path):
        definition = dict(VECTOR_ONLY, replications=4, max_slots=4000)
        with ResultsStore(tmp_path / "store") as store:
            self._campaign(store, definition, "a", seeds=[1, 2, 3, 4])
            self._campaign(store, definition, "b", seeds=[11, 12, 13, 14])
            diff = diff_campaigns(store, "a", right_id="b")
            assert diff.passed, diff.render()
            assert set(diff.reports) == {"binary-exponential", "polynomial"}

    def test_injected_regression_flagged(self, tmp_path):
        base = dict(VECTOR_ONLY, replications=4, max_slots=4000)
        regressed = dict(base, jamming={"kind": "bernoulli", "probability": 0.5})
        with ResultsStore(tmp_path / "store") as store:
            self._campaign(store, base, "base")
            self._campaign(store, regressed, "regressed")
            diff = diff_campaigns(store, "base", right_id="regressed")
            assert not diff.passed
            failures = [
                comparison.metric
                for report in diff.reports.values()
                for comparison in report.failures()
            ]
            assert failures, diff.render()
            assert any(note.startswith("scenario definitions differ") for note in diff.notes)

    def test_missing_protocol_is_a_regression(self, tmp_path):
        narrow = dict(VECTOR_ONLY, protocols=["binary-exponential"])
        with ResultsStore(tmp_path / "store") as store:
            self._campaign(store, VECTOR_ONLY, "wide")
            self._campaign(store, narrow, "narrow")
            diff = diff_campaigns(store, "wide", right_id="narrow")
            assert not diff.passed
            assert any("only in 'wide'" in item or "only in wide" in item for item in diff.missing)

    def test_diff_across_two_stores(self, tmp_path):
        with ResultsStore(tmp_path / "a") as left, ResultsStore(tmp_path / "b") as right:
            self._campaign(left, VECTOR_ONLY, "c")
            self._campaign(right, VECTOR_ONLY, "c")
            diff = diff_campaigns(left, "c", right, "c")
            assert diff.passed

    def test_incomplete_campaign_flagged_by_diff_and_bench_gate(self, tmp_path):
        """The diff gate fails on a campaign that stopped part-way."""
        with ResultsStore(tmp_path / "store") as store:
            self._campaign(store, VECTOR_ONLY, "done")
            with pytest.raises(CampaignInterrupted):
                start_campaign(
                    store,
                    _scenario(VECTOR_ONLY),
                    scale="smoke",
                    seeds=[51, 52],
                    backend_name="serial",
                    campaign_id="partial",
                    checkpoint_every=1,
                    fail_after_units=1,
                )
            diff = diff_campaigns(store, "done", right_id="partial")
            assert not diff.passed
            assert any("incomplete" in item for item in diff.missing)


class TestCacheStoreInterop:
    def test_cache_hits_reuse_campaign_scalar_runs(self, tmp_path):
        """The cache and campaigns share one persistence layer: a scalar
        run recorded by a campaign is a cache hit for the same spec."""
        from repro.exec.cache import ResultCacheBackend

        with ResultsStore(tmp_path / "store") as store:
            start_campaign(
                store,
                _scenario(VECTOR_ONLY),
                scale="smoke",
                backend_name="serial",
                campaign_id="c",
            )
        cache = ResultCacheBackend(tmp_path / "store")
        plan = build_plan(_scenario(VECTOR_ONLY), "smoke")
        cache.run(plan.specs)
        assert cache.hits == len(plan.specs)
        assert cache.misses == 0

    def test_cache_misses_rows_under_the_old_scalar_layout(self, tmp_path):
        """Scalar results that stored per-slot series were filed under
        ``scalar``: the cache recomputes them under the current layout."""
        specs = build_plan(_scenario(VECTOR_ONLY), "smoke").specs
        with make_backend("serial") as backend:
            results = backend.run(specs)
        with ResultsStore(tmp_path / "store") as store:
            for spec, result in zip(specs, results):
                store.put_run(spec.cache_key(), spec.seed, "scalar", result)
        with ResultCacheBackend(tmp_path / "store") as cache:
            cache.run(specs)
            assert (cache.hits, cache.misses) == (0, len(specs))
            assert cache.store.stats()["runs_by_layout"] == {
                "scalar": len(specs),
                SCALAR_LAYOUT: len(specs),
            }
