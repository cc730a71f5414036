"""Tests for the aggregation layer (`repro.observe`).

The load-bearing invariants:

* the full observe stack (registry sink, resource sampler, perf
  recording) is RNG- and result-inert — store fingerprints with it on
  and off are bit-identical on serial, processes, and vector backends;
* Prometheus text exposition conforms: valid metric names, exactly one
  HELP/TYPE pair per family, spec-compliant label escaping;
* resource sampling inherits the JSONL SIGKILL contract — a kill
  mid-sampling leaves a parseable file;
* `perf regress` passes a flat history (self-compare) and exits non-zero
  on an injected sustained slowdown.
"""

from __future__ import annotations

import functools
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.statistics import quantile
from repro.campaigns import campaign_status_rows, start_campaign
from repro.cli import main
from repro.exec import make_backend
from repro.observe import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    RegistrySink,
    ResourceSampler,
    backend_layout_name,
    detect_drift,
    escape_label_value,
    fold_events,
    host_fingerprint,
    make_sampler,
    record_scenario_perf,
    regress_groups,
    registry_to_dict,
    render_html_report,
    render_worker_table,
    sample_process,
    svg_sparkline,
    to_json,
    to_prometheus,
    unit_imbalance,
    worker_utilization,
)
from repro.observe.perf import group_samples, plan_workload_hash
from repro.observe.registry import METRIC_NAME_RE
from repro.scenarios.runner import build_plan
from repro.scenarios.spec import scenario_from_dict
from repro.store import ResultsStore
from repro.telemetry import (
    JsonlSink,
    MemorySink,
    TelemetrySession,
    activated,
    filter_events,
    read_events,
)

SCENARIO = {
    "id": "observe-mixed",
    "title": "Observe test scenario",
    "protocols": ["binary-exponential", "low-sensing"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "batch", "n": 12},
}


def _span(name, dur, *, backend="serial", kind="phase", ts=10.0, **attrs):
    return {
        "ts": ts,
        "run": "r1",
        "ev": "span",
        "name": name,
        "dur": dur,
        "attrs": {"kind": kind, "backend": backend, **attrs},
    }


class TestQuantile:
    def test_linear_interpolation_matches_numpy_default(self):
        np = pytest.importorskip("numpy")
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0.0, 0.25, 0.5, 0.9, 0.95, 1.0):
            assert quantile(values, q) == pytest.approx(
                float(np.quantile(values, q))
            )

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs_total", "help")
        counter.inc(2, backend="serial")
        counter.inc(3, backend="serial")
        counter.inc(1, backend="vector")
        assert counter.value(backend="serial") == 5
        assert counter.value(backend="vector") == 1

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_gauge_keeps_last_value(self):
        gauge = MetricsRegistry().gauge("rss_bytes")
        gauge.set(10, pid="1")
        gauge.set(7, pid="1")
        assert gauge.value(pid="1") == 7
        assert gauge.value(pid="2") is None

    def test_histogram_snapshot_has_quantiles(self):
        histogram = MetricsRegistry().histogram("dur_seconds")
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == 10
        assert snapshot["p50"] == pytest.approx(2.5)
        assert histogram.snapshot(other="x") is None

    def test_get_or_create_is_idempotent_but_type_strict(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        with pytest.raises(MetricError):
            registry.gauge("a_total")

    def test_invalid_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("0starts-with-digit")
        with pytest.raises(MetricError):
            registry.counter("ok_total").inc(1, **{"bad:label": "x"})


class TestFoldEvents:
    def test_spans_counters_events_sessions_all_fold(self):
        events = [
            {"ts": 1.0, "run": "r", "ev": "session_start", "argv": []},
            _span("simulate", 0.5),
            _span("simulate", 1.5),
            {"ts": 2.0, "run": "r", "ev": "counter", "name": "slots",
             "value": 100, "attrs": {"backend": "serial"}},
            {"ts": 3.0, "run": "r", "ev": "event", "name": "fallback",
             "attrs": {"reason": "protocol"}},
            {"ts": 4.0, "run": "r", "ev": "progress", "label": "x",
             "done": 1, "total": 2},
            {"ts": 5.0, "run": "r", "ev": "session_end", "elapsed_seconds": 4.0},
        ]
        registry = fold_events(events)
        spans = registry.get("repro_span_seconds")
        snapshot = spans.snapshot(name="simulate", kind="phase", backend="serial")
        assert snapshot["count"] == 2 and snapshot["sum"] == 2.0
        assert registry.get("repro_counter_total").value(
            name="slots", backend="serial"
        ) == 100
        assert registry.get("repro_events_total").value(
            name="fallback", reason="protocol"
        ) == 1
        assert registry.get("repro_sessions_total").value(phase="end") == 1

    def test_resource_samples_become_gauges_with_rss_peak(self):
        def sample(rss, cpu):
            return {"ts": 0, "run": "r", "ev": "event", "name": "resource_sample",
                    "attrs": {"pid": 42, "source": "parent",
                              "rss_bytes": rss, "cpu_seconds": cpu, "fds": 7}}

        registry = fold_events([sample(100, 0.1), sample(300, 0.2), sample(200, 0.3)])
        assert registry.get("repro_resource_rss_bytes").value(
            pid="42", source="parent"
        ) == 200  # last value
        assert registry.get("repro_resource_rss_peak_bytes").value(
            pid="42", source="parent"
        ) == 300  # high-water mark
        assert registry.get("repro_resource_cpu_seconds").value(
            pid="42", source="parent"
        ) == pytest.approx(0.3)
        assert registry.get("repro_resource_open_fds").value(
            pid="42", source="parent"
        ) == 7

    def test_registry_sink_folds_a_live_session(self):
        sink = RegistrySink()
        session = TelemetrySession([sink])
        with session.span("simulate", kind="phase", backend="serial"):
            pass
        session.counter("slots", 50, backend="serial")
        session.close()
        assert sink.registry.get("repro_counter_total").value(
            name="slots", backend="serial"
        ) == 50
        assert sink.registry.get("repro_span_seconds").snapshot(
            name="simulate", kind="phase", backend="serial"
        )["count"] == 1


class TestPrometheusConformance:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", "Jobs").inc(3, backend="serial")
        registry.gauge("repro_rss_bytes", "RSS").set(12345, pid="1")
        hist = registry.histogram("repro_dur_seconds", "Durations")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value, name="simulate")
        return registry

    def test_every_family_has_one_help_and_type_line(self):
        text = to_prometheus(self._registry())
        for name, exposition_type in (
            ("repro_jobs_total", "counter"),
            ("repro_rss_bytes", "gauge"),
            ("repro_dur_seconds", "summary"),
        ):
            assert text.count(f"# HELP {name} ") == 1
            assert text.count(f"# TYPE {name} {exposition_type}\n") == 1

    def test_all_sample_lines_have_valid_metric_names(self):
        for line in to_prometheus(self._registry()).splitlines():
            if not line or line.startswith("#"):
                continue
            name = re.split(r"[{ ]", line, maxsplit=1)[0]
            assert METRIC_NAME_RE.match(name), line

    def test_histogram_exports_quantiles_sum_and_count(self):
        text = to_prometheus(self._registry())
        assert 'repro_dur_seconds{name="simulate",quantile="0.5"} 0.2' in text
        assert 'repro_dur_seconds_sum{name="simulate"}' in text
        assert 'repro_dur_seconds_count{name="simulate"} 3' in text

    def test_label_values_escape_backslash_quote_and_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        registry = MetricsRegistry()
        registry.counter("e_total").inc(1, reason='bad "quote"\nnewline\\slash')
        (line,) = [
            line
            for line in to_prometheus(registry).splitlines()
            if line.startswith("e_total{")
        ]
        assert line == 'e_total{reason="bad \\"quote\\"\\nnewline\\\\slash"} 1'
        # The escaped payload must stay on one physical line.
        assert "\n" not in line

    def test_labels_render_sorted_and_infinities_render_signed(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(float("inf"), z="1", a="2")
        text = to_prometheus(registry)
        assert 'g{a="2",z="1"} +Inf' in text

    def test_empty_registry_renders_empty_document(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_json_export_mirrors_the_registry(self):
        document = registry_to_dict(self._registry())
        by_name = {metric["name"]: metric for metric in document["metrics"]}
        assert by_name["repro_jobs_total"]["type"] == "counter"
        assert by_name["repro_jobs_total"]["samples"][0]["value"] == 3
        hist = by_name["repro_dur_seconds"]["samples"][0]
        assert hist["count"] == 3 and "p95" in hist
        # to_json round-trips
        assert json.loads(to_json(self._registry()))["metrics"]


class TestResourceSampling:
    def test_sample_process_reads_self(self):
        sample = sample_process()
        # /proc exists on every platform this suite targets in CI; degrade
        # gracefully elsewhere but require CPU at minimum (os.times fallback).
        assert "cpu_seconds" in sample
        if os.path.isdir("/proc/self"):
            assert sample["rss_bytes"] > 0
            assert sample["fds"] > 0

    def test_sampler_emits_entry_and_exit_samples(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with ResourceSampler(session, interval=60.0):
            pass  # shorter than the interval: only the boundary samples
        session.close()
        samples = mem.events("resource_sample")
        assert len(samples) == 2
        assert all(record["attrs"]["source"] == "parent" for record in samples)
        assert all(record["attrs"]["pid"] == os.getpid() for record in samples)

    def test_sampler_interval_thread_produces_series(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with ResourceSampler(session, interval=0.02):
            time.sleep(0.15)
        session.close()
        assert len(mem.events("resource_sample")) >= 4

    def test_sampler_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            ResourceSampler(TelemetrySession([MemorySink()]), interval=0.0)

    def test_make_sampler_null_paths(self):
        session = TelemetrySession([MemorySink()])
        assert make_sampler(None, 0.1).start() is None  # null sampler no-ops
        assert make_sampler(session, None) is make_sampler(None, 0.1)
        real = make_sampler(session, 0.1)
        assert isinstance(real, ResourceSampler)
        session.close()

    def test_pool_workers_contribute_job_boundary_samples(self):
        from repro.experiments.plan import RunSpec, factory
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        specs = [
            RunSpec(
                protocol=BinaryExponentialBackoff(),
                adversary=factory(CompositeAdversary, factory(BatchArrivals, 10)),
                seed=seed,
                max_slots=1200,
            )
            for seed in (1, 2, 3, 4)
        ]
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(specs)
        worker_samples = [
            record
            for record in mem.events("resource_sample")
            if record["attrs"]["source"] == "worker"
        ]
        if not os.path.isdir("/proc"):
            pytest.skip("worker samples need procfs")
        assert worker_samples
        pids = {record["attrs"]["pid"] for record in worker_samples}
        assert len(pids) == len(worker_samples)  # one sample per worker pid
        assert all(
            record["attrs"]["rss_bytes"] > 0 for record in worker_samples
        )


class TestWorkerUtilization:
    def _events(self):
        return [
            _span("simulate", 2.0, backend="processes", ts=12.0,
                  worker_pid=101, queue_wait=0.1),
            _span("simulate", 1.0, backend="processes", ts=13.0,
                  worker_pid=102, queue_wait=0.3),
            _span("simulate", 1.0, backend="processes", ts=14.0,
                  worker_pid=101, queue_wait=0.2),
        ]

    def test_folds_busy_jobs_and_queue_wait(self):
        summary = worker_utilization(self._events())
        assert summary["jobs"] == 3
        by_pid = {row["pid"]: row for row in summary["workers"]}
        assert by_pid["101"]["jobs"] == 2
        assert by_pid["101"]["busy_seconds"] == pytest.approx(3.0)
        # Envelope: earliest start 10.0 (ts 12 - dur 2), latest end 14.0.
        assert summary["wall_seconds"] == pytest.approx(4.0)
        assert by_pid["101"]["busy_fraction"] == pytest.approx(0.75)
        # Imbalance: busy 3.0 vs 1.0, mean 2.0 -> 1.5.
        assert summary["imbalance"] == pytest.approx(1.5)
        assert summary["queue_wait"]["count"] == 3
        assert summary["queue_wait"]["p50"] == pytest.approx(0.2)
        assert summary["queue_wait"]["max"] == pytest.approx(0.3)

    def test_none_without_worker_attribution(self):
        assert worker_utilization([_span("simulate", 1.0)]) is None
        assert worker_utilization([]) is None

    def test_render_worker_table(self):
        rendered = render_worker_table(worker_utilization(self._events()))
        assert "workers (process-pool attribution)" in rendered
        assert "101" in rendered and "102" in rendered
        assert "imbalance 1.50x" in rendered
        assert "queue wait" in rendered

    def test_unit_imbalance_edges(self):
        assert unit_imbalance([]) is None
        assert unit_imbalance([5.0]) is None
        assert unit_imbalance([0.0, 0.0]) is None
        assert unit_imbalance([1.0, 3.0]) == pytest.approx(1.5)

    def test_processes_backend_spans_feed_utilization(self):
        from repro.experiments.plan import RunSpec, factory
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        specs = [
            RunSpec(
                protocol=BinaryExponentialBackoff(),
                adversary=factory(CompositeAdversary, factory(BatchArrivals, 8)),
                seed=seed,
                max_slots=1000,
            )
            for seed in (1, 2, 3)
        ]
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(specs)
        summary = worker_utilization(mem.records)
        assert summary is not None
        assert summary["jobs"] == 3
        assert summary["queue_wait"]["count"] == 3

    def test_campaign_status_reports_unit_imbalance(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        start_campaign(store, scenario_from_dict(SCENARIO), backend_name="serial")
        (row,) = campaign_status_rows(store)
        # Two protocol units with real timings -> a defined index >= 1.
        assert row["unit_imbalance"] is not None
        assert row["unit_imbalance"] >= 1.0
        store.close()


class TestPerfHistory:
    def test_put_and_list_perf_samples(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        for seconds in (1.0, 1.1):
            store.put_perf_sample(
                spec_hash="abc", backend_layout="serial", host="h",
                seconds=seconds, runs=2, slots=100,
                slots_per_second=100 / seconds, label="demo",
            )
        rows = store.perf_sample_rows()
        assert [row["seconds"] for row in rows] == [1.0, 1.1]
        assert rows[0]["label"] == "demo"
        assert store.perf_sample_rows(spec_prefix="ab")
        assert not store.perf_sample_rows(spec_prefix="zz")
        assert store.stats()["perf_samples"] == 2
        store.close()

    def test_perf_samples_do_not_move_the_fingerprint(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        start_campaign(store, scenario_from_dict(SCENARIO), backend_name="serial")
        before = store.fingerprint()
        store.put_perf_sample(
            spec_hash="abc", backend_layout="serial", host="h", seconds=9.9
        )
        assert store.fingerprint() == before
        store.close()

    def test_record_scenario_perf_stores_one_sample(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(SCENARIO)
        sample = record_scenario_perf(store, scenario, backend_name="serial")
        # Keyed by the workload the plan runs, not the scenario definition.
        assert sample["spec_hash"] == plan_workload_hash(build_plan(scenario))
        assert sample["spec_hash"] != scenario.content_hash()
        assert sample["backend_layout"] == "serial"
        assert sample["host"] == host_fingerprint()
        assert sample["runs"] == 6  # 2 protocols x 3 replications
        assert sample["slots"] > 0 and sample["seconds"] > 0
        (row,) = store.perf_sample_rows()
        assert row["label"] == f"{scenario.scenario_id}@default"
        # Recording is result-inert: no run rows, empty fingerprint.
        assert store.stats()["runs"] == 0
        store.close()

    def test_workload_hash_keys_scale_and_seeds(self):
        scenario = scenario_from_dict(dict(SCENARIO, max_slots=3000))

        def key(scale, seeds=None):
            return plan_workload_hash(build_plan(scenario, scale, seeds))

        assert key("default") == key("default")
        # The scale's own seed list spelled out is the same work.
        default_seeds = [scenario.base_seed + index for index in range(3)]
        assert key("default") == key("default", default_seeds)
        # Smoke caps max_slots and replications; other seeds are other work.
        assert len({key("smoke"), key("default"), key("default", [1, 2, 3])}) == 3

    @pytest.mark.parametrize(
        "edit",
        [
            {"max_slots": 2000},
            {"arrivals": {"kind": "batch", "n": 13}},
            {"jamming": {"kind": "bernoulli", "probability": 0.1}},
            {"protocols": ["low-sensing"]},
            {"base_seed": 7},
        ],
        ids=["max_slots", "arrivals", "jamming", "protocols", "base_seed"],
    )
    def test_workload_key_moves_with_the_work(self, edit):
        base = scenario_from_dict(SCENARIO)
        edited = scenario_from_dict(dict(SCENARIO, **edit))
        assert plan_workload_hash(build_plan(edited)) != plan_workload_hash(
            build_plan(base)
        )

    def test_workload_key_follows_plan_order(self):
        scenario = scenario_from_dict(SCENARIO)
        swapped = scenario_from_dict(
            dict(SCENARIO, protocols=list(reversed(SCENARIO["protocols"])))
        )
        forward = plan_workload_hash(build_plan(scenario, "default", [1, 2, 3]))
        assert forward != plan_workload_hash(build_plan(swapped, "default", [1, 2, 3]))
        assert forward != plan_workload_hash(build_plan(scenario, "default", [3, 2, 1]))

    def test_retitled_scenario_keeps_its_workload_key(self):
        """A cosmetic edit moves the content hash but not the work timed."""
        scenario = scenario_from_dict(SCENARIO)
        retitled = scenario_from_dict(dict(SCENARIO, title="Renamed"))
        assert retitled.content_hash() != scenario.content_hash()
        assert plan_workload_hash(build_plan(retitled)) == plan_workload_hash(
            build_plan(scenario)
        )

    def test_record_keys_explicit_seeds(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(dict(SCENARIO, max_slots=300))
        sample = record_scenario_perf(
            store, scenario, seeds=[1, 2], backend_name="serial"
        )
        store.close()
        assert sample["spec_hash"] == plan_workload_hash(
            build_plan(scenario, "default", [1, 2])
        )
        assert sample["runs"] == 4  # 2 protocols x 2 seeds

    def test_record_keys_the_scale(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(SCENARIO)
        sample = record_scenario_perf(
            store, scenario, scale="smoke", backend_name="serial"
        )
        store.close()
        assert sample["spec_hash"] == plan_workload_hash(build_plan(scenario, "smoke"))
        assert sample["spec_hash"] != plan_workload_hash(build_plan(scenario))
        assert sample["label"] == f"{scenario.scenario_id}@smoke"

    def test_samples_under_the_scenario_hash_keep_their_group(self, tmp_path):
        """Samples filed under the scenario content hash are never merged
        into (or compared with) the workload-keyed series."""
        store = ResultsStore(tmp_path / "s")
        scenario = scenario_from_dict(dict(SCENARIO, replications=1, max_slots=300))
        for seconds in (9.0, 9.1, 8.9, 9.0):
            store.put_perf_sample(
                spec_hash=scenario.content_hash(), backend_layout="serial",
                host=host_fingerprint(), seconds=seconds, label="before",
            )
        sample = record_scenario_perf(store, scenario, backend_name="serial")
        rows = store.perf_sample_rows()
        store.close()
        by_hash = {verdict["spec_hash"]: verdict for verdict in regress_groups(rows)}
        assert set(by_hash) == {scenario.content_hash(), sample["spec_hash"]}
        assert by_hash[scenario.content_hash()]["samples"] == 4
        assert by_hash[scenario.content_hash()]["status"] == "ok"
        assert by_hash[sample["spec_hash"]]["samples"] == 1

    def test_backend_layout_names(self):
        assert backend_layout_name("serial", None) == "serial"
        assert backend_layout_name("vector", 4) == "vector"
        assert backend_layout_name("processes", 4) == "processes:w4"

    def test_host_fingerprint_is_stable_and_short(self):
        assert host_fingerprint() == host_fingerprint()
        assert re.fullmatch(r"[0-9a-f]{12}", host_fingerprint())


class TestDriftDetection:
    def test_insufficient_history(self):
        verdict = detect_drift([1.0, 1.0, 1.5], window=2)
        assert verdict["status"] == "insufficient"
        assert verdict["needed"] == 4

    def test_flat_history_is_ok(self):
        values = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.01, 0.99]
        verdict = detect_drift(values)
        assert verdict["status"] == "ok"
        assert verdict["ratio"] == pytest.approx(1.0, abs=0.05)

    def test_sustained_slowdown_is_drift(self):
        values = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 2.0, 2.05]
        verdict = detect_drift(values)
        assert verdict["status"] == "drift"
        assert verdict["ratio"] > 1.9
        assert verdict["p_value"] is not None and verdict["p_value"] < 0.05

    def test_material_but_insignificant_is_ok(self):
        # Baseline so noisy the 1.3x "slowdown" is statistically flat.
        values = [0.5, 2.0, 0.4, 2.2, 0.6, 1.9, 1.5, 1.6]
        verdict = detect_drift(values, factor=1.2)
        assert verdict["p_value"] is None or verdict["p_value"] >= 0.05
        assert verdict["status"] == "ok"

    def test_zero_variance_falls_back_to_factor_gate(self):
        drifted = detect_drift([1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
        assert drifted["status"] == "drift" and drifted["p_value"] is None
        flat = detect_drift([1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        assert flat["status"] == "ok" and flat["p_value"] is None

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            detect_drift([1.0] * 8, window=0)

    def test_regress_groups_keeps_groups_separate(self):
        def row(spec, layout, seconds):
            return {"spec_hash": spec, "backend_layout": layout, "host": "h",
                    "seconds": seconds, "label": f"{spec}-label"}

        rows = [row("a", "serial", 1.0) for _ in range(6)]
        rows += [row("a", "serial", 3.0), row("a", "serial", 3.1)]
        rows += [row("b", "vector", 1.0) for _ in range(8)]
        verdicts = regress_groups(rows)
        by_key = {(v["spec_hash"], v["backend_layout"]): v for v in verdicts}
        assert by_key[("a", "serial")]["status"] == "drift"
        assert by_key[("a", "serial")]["label"] == "a-label"
        assert by_key[("b", "vector")]["status"] == "ok"

    def test_group_samples_keeps_recording_order_per_group(self):
        rows = [
            {"spec_hash": spec, "backend_layout": "serial", "host": "h",
             "seconds": seconds}
            for spec, seconds in (("a", 1.0), ("b", 5.0), ("a", 2.0), ("b", 6.0))
        ]
        groups = group_samples(rows)
        assert list(groups) == [("a", "serial", "h"), ("b", "serial", "h")]
        assert [row["seconds"] for row in groups[("a", "serial", "h")]] == [1.0, 2.0]
        assert [row["seconds"] for row in groups[("b", "serial", "h")]] == [5.0, 6.0]

    def test_hosts_are_never_compared(self):
        """A slow host's samples cannot read as drift on a fast host."""
        rows = [
            {"spec_hash": "a", "backend_layout": "serial", "host": host,
             "seconds": seconds, "label": "a"}
            for host, seconds in [("fast", 1.0)] * 6 + [("slow", 4.0)] * 2
        ]
        verdicts = regress_groups(rows)
        assert [(v["host"], v["status"]) for v in verdicts] == [
            ("fast", "ok"),
            ("slow", "insufficient"),
        ]

    def test_regress_groups_in_key_order_with_latest_label(self):
        rows = [
            {"spec_hash": spec, "backend_layout": layout, "host": "h",
             "seconds": 1.0, "label": label}
            for spec, layout, label in (
                ("b", "serial", "b-old"),
                ("a", "vector", "a"),
                ("a", "serial", "a"),
                ("b", "serial", "b-new"),
            )
        ]
        verdicts = regress_groups(rows)
        assert [(v["spec_hash"], v["backend_layout"]) for v in verdicts] == [
            ("a", "serial"),
            ("a", "vector"),
            ("b", "serial"),
        ]
        assert verdicts[-1]["label"] == "b-new"


class TestObserveFingerprintInvariance:
    """The full observe stack on/off must be bit-identical per backend."""

    @pytest.mark.parametrize("backend", ["serial", "processes", "vector"])
    def test_campaign_fingerprints_match_with_observe_on_and_off(
        self, tmp_path, backend
    ):
        fingerprints = {}
        for mode in ("off", "on"):
            store = ResultsStore(tmp_path / f"{backend}-{mode}")
            if mode == "on":
                session = TelemetrySession(
                    [MemorySink(), RegistrySink(),
                     JsonlSink(tmp_path / f"{backend}.jsonl")]
                )
                sampler = ResourceSampler(session, interval=0.01)
            else:
                session, sampler = None, None
            with activated(session):
                if sampler is not None:
                    sampler.start()
                start_campaign(
                    store,
                    scenario_from_dict(SCENARIO),
                    backend_name=backend,
                    workers=2 if backend == "processes" else None,
                )
                if sampler is not None:
                    sampler.stop()
                    # Perf recording must also be inert.
                    record_scenario_perf(
                        store,
                        scenario_from_dict(dict(SCENARIO, replications=1)),
                        backend_name="serial",
                    )
            fingerprints[mode] = store.fingerprint()
            store.close()
        assert fingerprints["on"] == fingerprints["off"]


class TestSummarizeSatellites:
    def _write_two_sessions(self, path):
        first = TelemetrySession([JsonlSink(path)], run_id="firstrun")
        with first.span("sweep", kind="root", backend="serial"):
            with first.span("simulate", kind="phase", backend="serial"):
                pass
        first.close()
        second = TelemetrySession([JsonlSink(path)], run_id="secondrun")
        with second.span("sweep", kind="root", backend="vector"):
            pass
        second.close()

    def test_filter_events_by_prefix_and_last(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._write_two_sessions(path)
        events = read_events(path)
        only_first = filter_events(events, runs=["first"])
        assert {record["run"] for record in only_first} == {"firstrun"}
        only_last = filter_events(events, last=True)
        assert {record["run"] for record in only_last} == {"secondrun"}
        assert filter_events(events) == events
        assert filter_events(events, runs=["nomatch"]) == []

    def test_cli_run_and_last_filters(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        self._write_two_sessions(path)
        assert main(["telemetry", "summarize", str(path), "--run", "first",
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == ["firstrun"]
        assert main(["telemetry", "summarize", str(path), "--last", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["runs"] == ["secondrun"]
        with pytest.raises(SystemExit):
            main(["telemetry", "summarize", str(path), "--run", "zzz"])

    def test_span_tables_carry_p50_p95(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)])
        with session.span("sweep", kind="root", backend="serial"):
            for duration in (0.0, 0.0, 0.0):
                session.span_record(
                    "simulate", duration, kind="phase", backend="serial"
                )
        session.close()
        assert main(["telemetry", "summarize", str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        (phase_row,) = summary["phases"]
        assert "p50" in phase_row and "p95" in phase_row
        assert phase_row["p50"] <= phase_row["p95"] <= phase_row["max"]
        assert main(["telemetry", "summarize", str(path)]) == 0
        rendered = capsys.readouterr().out
        assert "p50_s" in rendered and "p95_s" in rendered

    def test_read_events_streams_lazily(self, tmp_path):
        from repro.telemetry import iter_events

        path = tmp_path / "t.jsonl"
        path.write_text('{"ev": "counter"}\n{"ev": "span"}\n{"truncated',
                        encoding="utf-8")
        iterator = iter_events(path)
        assert next(iterator)["ev"] == "counter"
        assert next(iterator)["ev"] == "span"
        with pytest.raises(StopIteration):
            next(iterator)  # truncated tail tolerated
        assert len(read_events(path)) == 2


class TestSigkillDuringSampling:
    def test_jsonl_readable_after_sigkill_with_resource_sampling(self, tmp_path):
        """A kill mid-sampling leaves a parseable file with samples in it."""
        scenario = dict(SCENARIO)
        scenario["max_slots"] = 200_000
        scenario["replications"] = 6
        scenario["arrivals"] = {"kind": "poisson", "rate": 0.4}
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(scenario))
        tele_path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(scenario_file),
                "--backend", "serial",
                "--checkpoint-every", "1",
                "--store", str(tmp_path / "store"),
                "--telemetry", str(tele_path),
                "--sample-resources", "0.01",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        sampled = False
        while time.monotonic() < deadline:
            if tele_path.exists() and b"resource_sample" in tele_path.read_bytes():
                sampled = True
                break
            if process.poll() is not None:
                break
            time.sleep(0.02)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        assert tele_path.exists()
        events = read_events(tele_path)
        assert events, "events written before the kill must parse"
        if sampled:
            samples = [
                record for record in events
                if record.get("ev") == "event"
                and record.get("name") == "resource_sample"
            ]
            assert samples, "observed samples must survive the kill"
            registry = fold_events(events)
            assert registry.get("repro_resource_rss_bytes") is not None


def _file_fixed_durations(monkeypatch, durations):
    """Make ``perf record`` file ``durations``, in order, as its timings.

    The runs still execute; only the clock around them is fake, so the
    drift verdicts below do not depend on the host's load.
    """
    from repro.observe import perf

    readings = []
    elapsed = 0.0
    for duration in durations:
        readings += [elapsed, elapsed + duration]
        elapsed += duration
    record = functools.partial(
        perf.record_scenario_perf, clock=iter(readings).__next__
    )
    monkeypatch.setattr(perf, "record_scenario_perf", record)


class TestPerfCli:
    def _scenario_file(self, tmp_path):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(
            json.dumps(dict(SCENARIO, replications=1, max_slots=300))
        )
        return str(scenario_file)

    def test_record_history_and_self_regress_pass(
        self, tmp_path, capsys, monkeypatch
    ):
        _file_fixed_durations(monkeypatch, [0.50, 0.52, 0.51, 0.49])
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "4"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--store", store_dir, "--json"]) == 0
        history = json.loads(capsys.readouterr().out)
        assert len(history["samples"]) == 4
        assert sorted(sample["seconds"] for sample in history["samples"]) == [
            0.49, 0.50, 0.51, 0.52
        ]
        assert main(["perf", "regress", "--store", store_dir]) == 0
        assert "ok" in capsys.readouterr().out

    def test_injected_slowdown_fails_regress(self, tmp_path, capsys, monkeypatch):
        _file_fixed_durations(
            monkeypatch, [0.50, 0.52, 0.51, 0.49] + [0.80, 0.82]
        )
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "4"]) == 0
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "2"]) == 0
        capsys.readouterr()
        assert main(["perf", "regress", "--store", store_dir]) == 1
        assert "DRIFT" in capsys.readouterr().out

    def test_two_scales_are_two_groups(self, tmp_path, capsys, monkeypatch):
        """Timing one scenario at two scales must not read as drift."""
        _file_fixed_durations(
            monkeypatch, [0.50, 0.52, 0.51, 0.49] + [2.0, 2.1]
        )
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--scale", "smoke", "--repeat", "4"]) == 0
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--scale", "default", "--seeds", "1,2,3,4,5,6,7,8",
                     "--repeat", "2"]) == 0
        capsys.readouterr()
        assert main(["perf", "regress", "--store", store_dir, "--json"]) == 0
        groups = json.loads(capsys.readouterr().out)["groups"]
        assert len(groups) == 2
        assert sorted(group["status"] for group in groups) == ["insufficient", "ok"]

    def test_spec_prefix_selects_one_workload(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        for seeds in ("1,2", "3,4"):
            assert main(["perf", "record", scenario, "--store", store_dir,
                         "--seeds", seeds, "--repeat", "2"]) == 0
        capsys.readouterr()
        assert main(["perf", "history", "--store", store_dir, "--json"]) == 0
        samples = json.loads(capsys.readouterr().out)["samples"]
        keys = sorted({sample["spec_hash"] for sample in samples})
        assert len(keys) == 2
        prefix = keys[0][:12]
        assert main(["perf", "regress", "--store", store_dir,
                     "--spec", prefix, "--json"]) == 0
        (group,) = json.loads(capsys.readouterr().out)["groups"]
        assert group["spec_hash"] == keys[0]
        assert group["samples"] == 2

    def test_record_json_reports_the_workload_key(self, tmp_path, capsys):
        scenario_file = self._scenario_file(tmp_path)
        assert main(["perf", "record", scenario_file, "--store",
                     str(tmp_path / "store"), "--scale", "smoke", "--json"]) == 0
        (sample,) = json.loads(capsys.readouterr().out)["samples"]
        scenario = scenario_from_dict(json.loads(Path(scenario_file).read_text()))
        assert sample["spec_hash"] == plan_workload_hash(build_plan(scenario, "smoke"))

    def test_regress_json_group_fields(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir,
                     "--repeat", "4"]) == 0
        capsys.readouterr()
        code = main(["perf", "regress", "--store", store_dir, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"groups", "drifted"}
        assert code == (1 if payload["drifted"] else 0)
        (group,) = payload["groups"]
        assert set(group) == {
            "spec_hash", "backend_layout", "host", "label", "status",
            "samples", "window", "baseline", "latest_mean", "baseline_mean",
            "ratio", "p_value", "factor", "alpha",
        }

    def test_regress_json_reports_groups(self, tmp_path, capsys):
        scenario = self._scenario_file(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["perf", "record", scenario, "--store", store_dir]) == 0
        capsys.readouterr()
        assert main(["perf", "regress", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["drifted"] == 0
        assert payload["groups"][0]["status"] == "insufficient"

    def test_usage_errors_exit_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "record", "no-such-scenario",
                  "--store", str(tmp_path / "s")])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "history", "--store", str(tmp_path / "missing")])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--window", "0"],
            ["--baseline", "-2"],
            ["--baseline", "0"],
            ["--alpha", "0"],
            ["--alpha", "2"],
            ["--factor", "-1"],
        ],
        ids=["window-0", "baseline-neg", "baseline-0", "alpha-0", "alpha-2",
             "factor-neg"],
    )
    def test_out_of_range_option_is_a_usage_error(self, tmp_path, capsys, option):
        store_dir = tmp_path / "store"
        with ResultsStore(store_dir) as store:
            for seconds in (1.0, 1.1, 0.9, 1.0, 1.05, 0.95):
                store.put_perf_sample(
                    spec_hash="w", backend_layout="serial", host="h",
                    seconds=seconds, label="flat",
                )
        argv = ["perf", "regress", "--store", str(store_dir), *option]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{option[0]} must be" in err
        assert "Traceback" not in err


class TestReportCli:
    def test_html_report_for_a_campaign(self, tmp_path, capsys):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(SCENARIO))
        store_dir = str(tmp_path / "store")
        tele_path = tmp_path / "t.jsonl"
        assert main(["campaign", "run", str(scenario_file),
                     "--backend", "processes", "--workers", "2",
                     "--store", store_dir, "--telemetry", str(tele_path),
                     "--sample-resources", "0.05", "--dynamics"]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(tele_path)]) == 0
        assert "workers (process-pool attribution)" in capsys.readouterr().out
        assert main(["report", "metrics", str(tele_path)]) == 0
        assert "# TYPE repro_resource_rss_bytes gauge" in capsys.readouterr().out
        store = ResultsStore(Path(store_dir))
        (campaign,) = store.list_campaigns()
        store.close()
        out_path = tmp_path / "report.html"
        assert main(["report", "html", "--store", store_dir,
                     "--campaign", campaign["campaign_id"],
                     "--telemetry", str(tele_path),
                     "--out", str(out_path)]) == 0
        document = out_path.read_text(encoding="utf-8")
        assert document.startswith("<!DOCTYPE html>")
        assert "<svg" in document  # sparklines and/or phase bars
        assert "Phase wall-clock" in document
        assert "Campaign" in document
        assert "Trajectory" in document
        assert campaign["campaign_id"] in document

    def test_html_report_from_telemetry_only(self, tmp_path, capsys):
        tele_path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(tele_path)])
        with session.span("sweep", kind="root", backend="serial"):
            session.span_record("simulate", 0.5, kind="phase", backend="serial")
        session.close()
        assert main(["report", "html", "--telemetry", str(tele_path),
                     "--store", str(tmp_path / "no-store")]) == 0
        document = capsys.readouterr().out
        assert "Phase wall-clock" in document

    def test_html_perf_section_has_one_row_per_group(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        for spec_hash, seconds in (("a", 1.0), ("a", 1.1), ("b", 5.0)):
            store.put_perf_sample(
                spec_hash=spec_hash, backend_layout="serial", host="h",
                seconds=seconds, label=f"workload-{spec_hash}",
            )
        document = render_html_report(store=store)
        store.close()
        assert "Performance history" in document
        assert document.count("<td>workload-a</td>") == 1
        assert document.count("<td>workload-b</td>") == 1

    def test_html_perf_rows_follow_regress_groups(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        series = [("z", 1.0)] * 6 + [("z", 3.0)] * 2 + [("m", 1.0)]
        for spec_hash, seconds in series:
            store.put_perf_sample(
                spec_hash=spec_hash, backend_layout="serial", host="h",
                seconds=seconds, label=f"workload-{spec_hash}",
            )
        verdicts = regress_groups(store.perf_sample_rows())
        document = render_html_report(store=store)
        store.close()
        positions = [
            document.index(f"<td>{verdict['label']}</td>") for verdict in verdicts
        ]
        assert positions == sorted(positions)
        assert [verdict["status"] for verdict in verdicts] == ["insufficient", "drift"]
        assert '<td class="drift">drift</td>' in document
        assert '<td class="insufficient">insufficient</td>' in document

    def test_html_escapes_untrusted_strings(self):
        events = [_span("<script>alert(1)</script>", 1.0)]
        document = render_html_report(events=events, title="<b>t</b>")
        assert "<script>alert(1)" not in document
        assert "&lt;script&gt;" in document
        assert "<title>&lt;b&gt;t&lt;/b&gt;</title>" in document

    def test_report_without_inputs_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "html", "--store", str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_unknown_campaign_is_a_usage_error(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        store.close()
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "html", "--store", str(tmp_path / "s"),
                  "--campaign", "nope"])
        assert excinfo.value.code == 2

    def test_metrics_export_prometheus_and_json(self, tmp_path, capsys):
        tele_path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(tele_path)])
        session.counter("slots_simulated", 500, backend="serial")
        session.close()
        assert main(["report", "metrics", str(tele_path)]) == 0
        text = capsys.readouterr().out
        assert "# TYPE repro_counter_total counter" in text
        assert 'repro_counter_total{backend="serial",name="slots_simulated"} 500' in text
        assert main(["report", "metrics", str(tele_path),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(
            metric["name"] == "repro_counter_total"
            for metric in payload["metrics"]
        )

    def test_sample_resources_requires_telemetry(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "e1", "--scale", "smoke", "--sample-resources"])
        assert excinfo.value.code == 2


class TestSvgSparkline:
    def test_empty_and_constant_series(self):
        assert svg_sparkline([]) == ""
        constant = svg_sparkline([2.0, 2.0, 2.0])
        assert constant.startswith("<svg")
        assert "polyline" in constant

    def test_long_series_is_downsampled(self):
        document = svg_sparkline(list(range(10_000)), width=100)
        points = document.split('polyline class="spark" points="')[1].split('"')[0]
        assert len(points.split()) <= 52  # max_points = width // 2 + rounding
