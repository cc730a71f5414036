"""Tests for the execution-backend layer (serial, processes, cache)."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.core.low_sensing import LowSensingBackoff
from repro.exec import make_backend
from repro.exec.backends import (
    SCALAR_LAYOUT,
    ProcessPoolBackend,
    SerialBackend,
    _execute_pool_job,
    execute_job,
)
from repro.exec.cache import ResultCacheBackend
from repro.exec.vector_backend import VectorBackend
from repro.experiments.plan import RunSpec, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.sim.config import SimulationConfig
from tests.conftest import run_specs


def _specs(n=20, seeds=(1, 2, 3)):
    return run_specs(
        LowSensingBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, n)),
        seeds,
        max_slots=50_000,
    )


def _summaries(results):
    return [result.summary() for result in results]


class DuckJob:
    """A job that only builds its configuration: no spec fields, no cache key."""

    def __init__(self, seed):
        self.seed = seed

    def build_config(self):
        return SimulationConfig(
            protocol=LowSensingBackoff(),
            adversary=CompositeAdversary(BatchArrivals(10)),
            seed=self.seed,
        )


class TestSerialBackend:
    def test_runs_duck_typed_jobs_in_order(self):
        jobs = [DuckJob(seed) for seed in (5, 6)]
        results = SerialBackend().run(jobs)
        assert [result.seed for result in results] == [5, 6]
        assert all(result.drained for result in results)

    def test_matches_direct_execution(self):
        spec = _specs(seeds=(7,))[0]
        assert SerialBackend().run([spec])[0].summary() == execute_job(spec).summary()


class TestProcessPoolBackend:
    def test_identical_to_serial(self):
        specs = _specs()
        serial = SerialBackend().run(specs)
        parallel = ProcessPoolBackend(workers=2).run(specs)
        assert _summaries(parallel) == _summaries(serial)

    def test_single_job_still_goes_through_pool(self):
        specs = _specs(seeds=(3,))
        results = ProcessPoolBackend(workers=4).run(specs)
        assert results[0].seed == 3

    def test_empty_job_list(self):
        assert ProcessPoolBackend(workers=2).run([]) == []

    def test_rejects_unpicklable_jobs(self):
        class ClosureJob:
            def __init__(self):
                self.build = lambda: None  # lambdas cannot be pickled

            def build_config(self):  # pragma: no cover - never reached
                raise AssertionError

        with pytest.raises(TypeError, match="picklable"):
            ProcessPoolBackend(workers=2).run([ClosureJob(), ClosureJob()])

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(workers=0)

    def test_describe_reports_the_one_option(self):
        assert ProcessPoolBackend(workers=3).describe() == {
            "backend": "processes",
            "workers": 3,
        }


def _beb_spec():
    return RunSpec(
        protocol=BinaryExponentialBackoff(),
        adversary=factory(CompositeAdversary, factory(BatchArrivals, 10)),
        seed=4,
        max_slots=1200,
    )


def _run_outputs(result):
    return result.packets, result.summary()


#: Runs one pool job with telemetry off in a fresh interpreter, as a fresh
#: pool worker would, and reports whether it imported ``repro.observe``.
_FRESH_WORKER = """
import pickle, sys
from repro.exec.backends import _execute_pool_job
result, _, _, _, resources = _execute_pool_job((0, pickle.load(sys.stdin.buffer), False))
pickle.dump((result, resources, "repro.observe" in sys.modules), sys.stdout.buffer)
"""


class TestPoolWorkerTelemetry:
    """A pool job samples its worker's resources only with telemetry on."""

    def test_telemetry_off_samples_and_imports_nothing(self):
        spec = _beb_spec()
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        completed = subprocess.run(
            [sys.executable, "-c", _FRESH_WORKER],
            input=pickle.dumps(spec),
            capture_output=True,
            env=env,
            check=True,
        )
        result, resources, observe_imported = pickle.loads(completed.stdout)
        assert resources == {}
        assert not observe_imported
        assert _run_outputs(result) == _run_outputs(execute_job(spec))

    def test_telemetry_on_samples_the_worker(self):
        spec = _beb_spec()
        result, pid, _, _, resources = _execute_pool_job((0, spec, True))
        assert pid == os.getpid()
        assert _run_outputs(result) == _run_outputs(execute_job(spec))
        if not os.path.isdir("/proc"):
            pytest.skip("resource samples need procfs")
        assert resources["rss_bytes"] > 0


class TestResultCacheBackend:
    @pytest.mark.parametrize("inner", [SerialBackend, VectorBackend])
    def test_miss_then_hit_identical(self, tmp_path, inner):
        specs = _specs()
        cache = ResultCacheBackend(tmp_path / "cache", inner=inner())
        first = cache.run(specs)
        assert (cache.hits, cache.misses) == (0, len(specs))
        second = cache.run(specs)
        assert (cache.hits, cache.misses) == (len(specs), len(specs))
        assert _summaries(second) == _summaries(first)
        assert _summaries(first) == _summaries(inner().run(specs))
        layouts = {inner().result_layout(spec) for spec in specs}
        assert set(cache.store.stats()["runs_by_layout"]) == layouts

    def test_different_specs_do_not_collide(self, tmp_path):
        cache = ResultCacheBackend(tmp_path / "cache")
        small = cache.run(_specs(n=10, seeds=(1,)))[0]
        large = cache.run(_specs(n=40, seeds=(1,)))[0]
        assert small.num_arrivals == 10
        assert large.num_arrivals == 40

    def test_jobs_without_cache_key_always_delegate(self, tmp_path):
        cache = ResultCacheBackend(tmp_path / "cache")
        cache.run([DuckJob(1)])
        # A job without a cache key has no identity to file its result
        # under; the cache must not have stored it.
        assert cache.misses == 1 and cache.hits == 0
        assert cache.store.stats()["runs"] == 0

    def test_entries_live_in_the_results_store(self, tmp_path):
        specs = _specs(seeds=(9,))
        cache = ResultCacheBackend(tmp_path / "cache")
        cache.run(specs)
        stored = cache.store.get_run(specs[0].cache_key(), 9, SCALAR_LAYOUT)
        assert stored is not None and stored.source == "cache"
        assert stored.metrics["throughput"] > 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        specs = _specs(seeds=(9,))
        cache = ResultCacheBackend(tmp_path / "cache")
        first = cache.run(specs)[0]
        for artifact in (tmp_path / "cache" / "artifacts").rglob("*.pkl"):
            artifact.write_bytes(b"not a pickle")
        again = cache.run(specs)[0]
        assert again.summary() == first.summary()

    def test_corrupt_entry_recovery(self, tmp_path):
        """A corrupted entry is counted as a miss, re-run, and overwritten
        with a valid entry that the next run hits."""
        specs = _specs(seeds=(9,))
        cache = ResultCacheBackend(tmp_path / "cache")
        first = cache.run(specs)[0]
        for artifact in (tmp_path / "cache" / "artifacts").rglob("*.pkl"):
            artifact.write_bytes(b"\x80\x04garbage")
        recovered = cache.run(specs)[0]
        assert (cache.hits, cache.misses) == (0, 2)
        assert recovered.summary() == first.summary()
        # The entry was rewritten: the third run is a clean hit.
        third = cache.run(specs)[0]
        assert (cache.hits, cache.misses) == (1, 2)
        assert third.summary() == first.summary()

    def test_describe_reports_hit_and_miss_counts(self, tmp_path):
        specs = _specs(seeds=(1, 2))
        cache = ResultCacheBackend(tmp_path / "cache")
        cache.run(specs)
        cache.run(specs)
        description = cache.describe()
        assert description["hits"] == 2
        assert description["misses"] == 2
        assert description["inner"] == {"backend": "serial"}

    def test_close_releases_the_store_and_reopens_on_demand(self, tmp_path):
        specs = _specs(seeds=(1,))
        with ResultCacheBackend(tmp_path / "cache") as cache:
            cache.run(specs)
            assert cache._store is not None
        assert cache._store is None  # __exit__ closed the connection
        # The backend stays usable: the store reopens lazily.
        cache.run(specs)
        assert cache.hits == 1
        cache.close()


class TestMakeBackend:
    def test_names(self):
        assert SerialBackend.name == make_backend("serial").name
        backend = make_backend("processes", workers=3)
        assert backend.name == "processes" and backend.workers == 3

    def test_cache_wrapping(self, tmp_path):
        backend = make_backend("serial", cache_dir=tmp_path / "cache")
        assert isinstance(backend, ResultCacheBackend)
        assert isinstance(backend.inner, SerialBackend)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_backend("threads")
