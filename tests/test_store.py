"""Tests for the durable results store (`repro.store`)."""

from __future__ import annotations

import multiprocessing

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.exec.backends import SerialBackend
from repro.experiments.plan import RunSpec, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.store import ResultsStore


def _spec(seed=1, n=10, **options):
    return RunSpec(
        protocol=BinaryExponentialBackoff(),
        adversary=factory(CompositeAdversary, factory(BatchArrivals, n)),
        seed=seed,
        max_slots=2000,
        **options,
    )


def _run(spec):
    return SerialBackend().run([spec])[0]


class TestRunsRegistry:
    def test_put_get_roundtrip(self, tmp_path):
        spec = _spec(seed=3)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            artifact_hash = store.put_run(
                spec.cache_key(), 3, "scalar", result, source="campaign"
            )
            assert len(artifact_hash) == 64
            stored = store.get_run(spec.cache_key(), 3, "scalar")
            assert stored is not None
            assert stored.artifact_hash == artifact_hash
            assert stored.source == "campaign"
            assert stored.protocol == result.summary().protocol
            assert stored.metrics["throughput"] == result.throughput
            loaded = store.get_result(spec.cache_key(), 3, "scalar")
            assert loaded is not None
            assert loaded.summary() == result.summary()

    def test_put_is_idempotent(self, tmp_path):
        spec = _spec(seed=5)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            store.put_run(spec.cache_key(), 5, "scalar", result)
            first = store.get_run(spec.cache_key(), 5, "scalar")
            store.put_run(spec.cache_key(), 5, "scalar", result)
            assert store.stats()["runs"] == 1
            # The original row survives untouched (provenance included).
            assert store.get_run(spec.cache_key(), 5, "scalar") == first

    def test_layouts_are_distinct_namespaces(self, tmp_path):
        spec = _spec(seed=7)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            store.put_run(spec.cache_key(), 7, "scalar", result)
            assert store.get_run(spec.cache_key(), 7, "vector:abc") is None
            assert store.has_run(spec.cache_key(), 7, "scalar")

    def test_identical_results_share_one_artifact(self, tmp_path):
        spec = _spec(seed=9)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            first = store.put_run(spec.cache_key(), 9, "scalar", result)
            second = store.put_run("other-spec-hash", 9, "scalar", result)
            assert first == second
            assert store.stats()["artifacts"] == 1
            assert store.stats()["runs"] == 2

    def test_corrupt_artifact_reads_as_missing_and_heals(self, tmp_path):
        spec = _spec(seed=11)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            store.put_run(spec.cache_key(), 11, "scalar", result)
            for artifact in store.artifacts_dir.rglob("*.pkl"):
                artifact.write_bytes(b"damaged")
            assert store.get_result(spec.cache_key(), 11, "scalar") is None
            # Re-putting the same run heals the damaged artifact in place.
            store.put_run(spec.cache_key(), 11, "scalar", result)
            healed = store.get_result(spec.cache_key(), 11, "scalar")
            assert healed is not None and healed.summary() == result.summary()

    def test_unreadable_artifacts_emit_one_event_each(self, tmp_path):
        from repro.telemetry import MemorySink, TelemetrySession, activated

        spec = _spec(seed=13)
        key = (spec.cache_key(), 13, "scalar")
        with ResultsStore(tmp_path / "store") as store:
            artifact_hash = store.put_run(*key, _run(spec))
            path = store._artifact_path(artifact_hash)
            path.write_bytes(path.read_bytes()[:100])
            # Telemetry off: the miss stays a plain None.
            assert store.get_result(*key) is None
            sink = MemorySink()
            with activated(TelemetrySession([sink])):
                assert store.get_result(*key) is None
                path.unlink()
                assert store.load_artifact(artifact_hash) is None
            assert [event["attrs"] for event in sink.events("artifact_unreadable")] == [
                {"artifact_hash": artifact_hash, "error": "UnpicklingError"},
                {"artifact_hash": artifact_hash, "error": "FileNotFoundError"},
            ]


WRITERS = 8
RUNS_PER_WRITER = 30


def _write_campaign(root, writer, runs, barrier=None):
    """Store ``runs`` and commit them as one unit of campaign ``writer``."""
    if barrier is not None:
        barrier.wait(timeout=60)
    campaign_id = f"writer-{writer}"
    with ResultsStore(root) as store:
        store.create_campaign(
            campaign_id,
            scenario_id=None,
            scenario_hash=None,
            definition=None,
            scale="smoke",
            seeds=[seed for _, seed, _ in runs],
            backend="serial",
            total_runs=len(runs),
        )
        for spec_hash, seed, result in runs:
            store.put_run(spec_hash, seed, "scalar", result, source="campaign")
        store.record_campaign_unit(
            campaign_id,
            [
                (position, 0, "binary-exponential", spec_hash, seed, "scalar")
                for position, (spec_hash, seed, _) in enumerate(runs)
            ],
            elapsed_seconds=0.0,
            unit_index=0,
        )


class TestConcurrentWriters:
    def test_eight_processes_lose_no_row(self, tmp_path):
        """Writers on one store wait for SQLite's lock; none loses a row."""
        specs = [_spec(seed=seed) for seed in range(WRITERS * RUNS_PER_WRITER)]
        results = SerialBackend().run(specs)
        runs = [
            (spec.cache_key(), spec.seed, result)
            for spec, result in zip(specs, results)
        ]
        shares = [
            runs[writer * RUNS_PER_WRITER : (writer + 1) * RUNS_PER_WRITER]
            for writer in range(WRITERS)
        ]
        root = tmp_path / "shared"
        context = multiprocessing.get_context("spawn")
        barrier = context.Barrier(WRITERS)
        processes = [
            context.Process(
                target=_write_campaign, args=(root, writer, share, barrier)
            )
            for writer, share in enumerate(shares)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert [process.exitcode for process in processes] == [0] * WRITERS

        for writer, share in enumerate(shares):
            _write_campaign(tmp_path / "single", writer, share)
        with ResultsStore(root) as store, ResultsStore(tmp_path / "single") as single:
            stored = store.iter_runs()
            assert len(stored) == WRITERS * RUNS_PER_WRITER
            assert sum(
                store.campaign_run_count(f"writer-{writer}")
                for writer in range(WRITERS)
            ) == WRITERS * RUNS_PER_WRITER
            for run in stored:
                assert store.load_artifact(run.artifact_hash) is not None
            assert store.fingerprint() == single.fingerprint()


class TestSchemaVersion:
    def test_future_schema_store_is_refused_loudly(self, tmp_path):
        from repro.store import StoreError

        root = tmp_path / "store"
        with ResultsStore(root) as store:
            with store._connection:
                store._connection.execute(
                    "UPDATE meta SET value = '99' WHERE key = 'schema'"
                )
        with pytest.raises(StoreError, match="schema v99"):
            ResultsStore(root)


class TestFingerprint:
    def test_invariant_to_provenance(self, tmp_path):
        spec = _spec(seed=2)
        result = _run(spec)
        with ResultsStore(tmp_path / "a") as a, ResultsStore(tmp_path / "b") as b:
            a.put_run(spec.cache_key(), 2, "scalar", result, elapsed_seconds=1.0)
            b.put_run(spec.cache_key(), 2, "scalar", result, elapsed_seconds=99.0)
            assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_content(self, tmp_path):
        spec_a, spec_b = _spec(seed=2), _spec(seed=4)
        with ResultsStore(tmp_path / "a") as a, ResultsStore(tmp_path / "b") as b:
            a.put_run(spec_a.cache_key(), 2, "scalar", _run(spec_a))
            b.put_run(spec_b.cache_key(), 4, "scalar", _run(spec_b))
            assert a.fingerprint() != b.fingerprint()

    def test_empty_stores_agree(self, tmp_path):
        with ResultsStore(tmp_path / "a") as a, ResultsStore(tmp_path / "b") as b:
            assert a.fingerprint() == b.fingerprint()

    def test_source_and_scenario_hash_are_provenance_not_identity(self, tmp_path):
        """A run first stored by the cache and later adopted by a campaign
        must fingerprint like one the campaign executed itself."""
        spec = _spec(seed=6)
        result = _run(spec)
        with ResultsStore(tmp_path / "a") as a, ResultsStore(tmp_path / "b") as b:
            a.put_run(spec.cache_key(), 6, "scalar", result, source="cache")
            b.put_run(
                spec.cache_key(),
                6,
                "scalar",
                result,
                source="campaign",
                scenario_hash="abc123",
            )
            assert a.fingerprint() == b.fingerprint()

    def test_put_repairs_row_whose_artifact_hash_drifted(self, tmp_path):
        spec = _spec(seed=8)
        result = _run(spec)
        with ResultsStore(tmp_path / "store") as store:
            store.put_run(spec.cache_key(), 8, "scalar", result, source="campaign")
            with store._connection:
                store._connection.execute(
                    "UPDATE runs SET artifact_hash = 'deadbeef'"
                )
            store.put_run(spec.cache_key(), 8, "scalar", result)
            repaired = store.get_run(spec.cache_key(), 8, "scalar")
            assert repaired.artifact_hash != "deadbeef"
            # Provenance of the original row survives the repair.
            assert repaired.source == "campaign"
            loaded = store.get_result(spec.cache_key(), 8, "scalar")
            assert loaded is not None and loaded.summary() == result.summary()


class TestStatsAndPrune:
    def _age_rows(self, store, days):
        """Backdate every run row by ``days`` (prune cuts on created_at)."""
        import datetime

        cutoff = (
            datetime.datetime.now(datetime.timezone.utc)
            - datetime.timedelta(days=days)
        ).isoformat(timespec="seconds")
        with store._connection:
            store._connection.execute("UPDATE runs SET created_at = ?", (cutoff,))

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            for seed in (1, 2, 3):
                spec = _spec(seed=seed)
                store.put_run(spec.cache_key(), seed, "scalar", _run(spec))
            stats = store.stats()
            assert stats["runs"] == 3
            assert stats["runs_by_source"] == {"cache": 3}
            assert stats["artifacts"] == 3
            assert stats["artifact_bytes"] > 0
            assert stats["db_bytes"] > 0

    def test_prune_by_age(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            spec = _spec(seed=1)
            store.put_run(spec.cache_key(), 1, "scalar", _run(spec))
            self._age_rows(store, days=40)
            fresh = _spec(seed=2)
            store.put_run(fresh.cache_key(), 2, "scalar", _run(fresh))
            removed = store.prune(older_than_days=30)
            assert removed["removed_runs"] == 1
            assert removed["removed_artifacts"] == 1
            assert store.stats()["runs"] == 1
            assert store.has_run(fresh.cache_key(), 2, "scalar")

    def test_prune_by_max_bytes_drops_oldest_first(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            specs = [_spec(seed=seed) for seed in (1, 2, 3)]
            for days_old, spec in zip((3, 2, 1), specs):
                store.put_run(spec.cache_key(), spec.seed, "scalar", _run(spec))
            # Stagger ages: seed 1 oldest.
            import datetime

            with store._connection:
                for days_old, spec in zip((3, 2, 1), specs):
                    stamp = (
                        datetime.datetime.now(datetime.timezone.utc)
                        - datetime.timedelta(days=days_old)
                    ).isoformat(timespec="seconds")
                    store._connection.execute(
                        "UPDATE runs SET created_at = ? WHERE seed = ?",
                        (stamp, spec.seed),
                    )
            total = store.stats()["artifact_bytes"]
            removed = store.prune(max_bytes=total - 1)
            assert removed["removed_runs"] == 1
            assert not store.has_run(specs[0].cache_key(), 1, "scalar")
            assert store.has_run(specs[2].cache_key(), 3, "scalar")

    def test_prune_max_bytes_accounts_for_shared_artifacts(self, tmp_path):
        """Two rows sharing one content-addressed artifact: the shared
        bytes count as long as any referent survives, so max_bytes=0 must
        doom both rows and empty the store."""
        with ResultsStore(tmp_path / "store") as store:
            spec = _spec(seed=1)
            result = _run(spec)
            store.put_run(spec.cache_key(), 1, "scalar", result)
            store.put_run("other-spec-hash", 1, "scalar", result)
            assert store.stats()["artifacts"] == 1  # shared
            self._age_rows(store, days=40)
            removed = store.prune(older_than_days=30, max_bytes=0)
            assert removed["removed_runs"] == 2
            assert removed["removed_artifacts"] == 1
            stats = store.stats()
            assert stats["runs"] == 0 and stats["artifact_bytes"] == 0

    def test_prune_protects_campaign_runs(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            spec = _spec(seed=1)
            store.put_run(spec.cache_key(), 1, "scalar", _run(spec), source="campaign")
            store.create_campaign(
                "c1",
                scenario_id="s",
                scenario_hash="h",
                definition=None,
                scale="smoke",
                seeds=[1],
                backend="serial",
                total_runs=1,
            )
            store.record_campaign_unit(
                "c1",
                [(0, 0, "binary-exponential", spec.cache_key(), 1, "scalar")],
                elapsed_seconds=0.1,
            )
            self._age_rows(store, days=400)
            removed = store.prune(older_than_days=1, max_bytes=0)
            assert removed["removed_runs"] == 0
            assert store.has_run(spec.cache_key(), 1, "scalar")

    def test_prune_max_bytes_counts_trajectory_artifacts(self, tmp_path):
        """Dooming a row frees its run artifact and its trajectory's, so a
        half-size budget keeps about half the runs instead of none."""
        with ResultsStore(tmp_path / "store") as store:
            for seed in range(10):
                spec = _spec(seed=seed, dynamics_window=10)
                store.put_run(spec.cache_key(), seed, "scalar", _run(spec))
            stats = store.stats()
            assert stats["trajectories"] == 10
            budget = stats["artifact_bytes"] // 2
            preview = store.prune(max_bytes=budget, dry_run=True)
            removed = store.prune(max_bytes=budget)
            assert preview["removed_runs"] == removed["removed_runs"]
            assert preview["removed_bytes"] == removed["removed_bytes"]
            stats = store.stats()
            assert 0 < stats["artifact_bytes"] <= budget
            assert 4 <= stats["runs"] == stats["trajectories"] < 10

    def test_prune_reads_each_table_once(self, tmp_path):
        """The SQL a prune runs does not grow with the number of candidates."""
        result = _run(_spec(seed=1))

        def statements(rows):
            with ResultsStore(tmp_path / f"store-{rows}") as store:
                for index in range(rows):
                    store.put_run(f"spec-{index}", 1, "scalar", result)
                executed = []
                store._connection.set_trace_callback(executed.append)
                removed = store.prune(max_bytes=0, dry_run=True)
                store._connection.set_trace_callback(None)
                assert removed["removed_runs"] == rows
                return len(executed)

        assert statements(20) == statements(60)

    def test_prune_dry_run_touches_nothing(self, tmp_path):
        with ResultsStore(tmp_path / "store") as store:
            spec = _spec(seed=1)
            store.put_run(spec.cache_key(), 1, "scalar", _run(spec))
            self._age_rows(store, days=40)
            removed = store.prune(older_than_days=30, dry_run=True)
            assert removed["removed_runs"] == 1
            assert removed["removed_artifacts"] == 1
            assert removed["dry_run"] is True
            assert store.stats()["runs"] == 1
            assert store.stats()["artifacts"] == 1
