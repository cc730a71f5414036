"""Tests for the aggregation layer (`repro.observe`).

The load-bearing invariants:

* the full observe stack (telemetry sinks, resource sampler, perf
  recording) is RNG- and result-inert — store fingerprints with it on
  and off are bit-identical on serial, processes, and vector backends;
* resource sampling inherits the JSONL SIGKILL contract — a kill
  mid-sampling leaves a parseable file whose samples `telemetry
  summarize` folds into its `resources` table;
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
    ResourceSampler,
    backend_layout_name,
    detect_drift,
    host_fingerprint,
    record_scenario_perf,
    regress_groups,
    render_worker_table,
    sample_process,
    unit_imbalance,
    worker_utilization,
)
from repro.observe.perf import group_samples, plan_workload_hash
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
    render_summary,
    summarize_events,
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


def _pool_specs():
    from repro.adversary.arrivals import BatchArrivals
    from repro.adversary.composite import CompositeAdversary
    from repro.experiments.plan import RunSpec, factory
    from repro.protocols.binary_exponential import BinaryExponentialBackoff

    return [
        RunSpec(
            protocol=BinaryExponentialBackoff(),
            adversary=factory(CompositeAdversary, factory(BatchArrivals, 10)),
            seed=seed,
            max_slots=1200,
        )
        for seed in (1, 2, 3, 4)
    ]


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

    def test_cli_rule_resolves_to_the_null_or_a_real_sampler(self):
        import argparse

        from repro.cli import _resource_sampler
        from repro.observe import DEFAULT_INTERVAL, NULL_SAMPLER

        parser = argparse.ArgumentParser()
        session = TelemetrySession([MemorySink()])
        off = argparse.Namespace(sample_resources=None, telemetry=None)
        assert _resource_sampler(off, parser, session) is NULL_SAMPLER
        with NULL_SAMPLER as entered:  # the null sampler is a no-op context
            assert entered is NULL_SAMPLER
        bare = argparse.Namespace(sample_resources=-1.0, telemetry="t.jsonl")
        default = _resource_sampler(bare, parser, session)
        assert isinstance(default, ResourceSampler)
        assert default.interval == DEFAULT_INTERVAL
        given = argparse.Namespace(sample_resources=0.5, telemetry="t.jsonl")
        assert _resource_sampler(given, parser, session).interval == 0.5
        session.close()

    def test_cli_rule_rejects_a_nonpositive_interval(self):
        import argparse

        from repro.cli import _resource_sampler

        session = TelemetrySession([MemorySink()])
        args = argparse.Namespace(sample_resources=0.0, telemetry="t.jsonl")
        with pytest.raises(SystemExit) as excinfo:
            _resource_sampler(args, argparse.ArgumentParser(), session)
        assert excinfo.value.code == 2
        session.close()

    def test_pool_workers_contribute_job_boundary_samples(self):
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(_pool_specs())
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

    def test_summary_keeps_the_rss_peak_and_the_last_cpu_and_fds(self):
        """One row per (pid, source), and none without samples."""
        mib = 2**20

        def sample(rss, cpu, fds, source="parent"):
            return {"ts": 0, "run": "r", "ev": "event", "name": "resource_sample",
                    "attrs": {"pid": 42, "source": source,
                              "rss_bytes": rss, "cpu_seconds": cpu, "fds": fds}}

        summary = summarize_events([
            sample(100 * mib, 0.1, 7), sample(300 * mib, 0.2, 9),
            sample(200 * mib, 0.3, 8), sample(50 * mib, 0.5, 4, source="worker"),
        ])
        assert summary["resources"] == [
            {"pid": "42", "source": "parent", "rss_peak_bytes": 300 * mib,
             "cpu_seconds": 0.3, "fds": 8},
            {"pid": "42", "source": "worker", "rss_peak_bytes": 50 * mib,
             "cpu_seconds": 0.5, "fds": 4},
        ]
        rendered = render_summary(summary)
        assert "resources (peak RSS; last CPU and fd readings)" in rendered
        (row,) = [line for line in rendered.splitlines() if " parent " in line]
        assert row.split() == ["42", "parent", "300.0", "0.3000", "8"]
        unsampled = summarize_events([_span("simulate", 0.5)])
        assert "resources" not in unsampled
        assert "resources" not in render_summary(unsampled)

    def test_summarize_a_sampled_pool_campaign(self, tmp_path, capsys):
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(SCENARIO))
        tele_path = tmp_path / "t.jsonl"
        assert main(["campaign", "run", str(scenario_file),
                     "--backend", "processes", "--workers", "2",
                     "--store", str(tmp_path / "store"),
                     "--telemetry", str(tele_path),
                     "--sample-resources", "0.05", "--dynamics"]) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(tele_path)]) == 0
        rendered = capsys.readouterr().out
        assert "workers (process-pool attribution)" in rendered
        assert "resources (peak RSS; last CPU and fd readings)" in rendered
        assert main(["telemetry", "summarize", str(tele_path), "--json"]) == 0
        resources = json.loads(capsys.readouterr().out)["resources"]
        assert {row["source"] for row in resources} == {"parent", "worker"}
        if os.path.isdir("/proc"):
            assert all(row["rss_peak_bytes"] > 0 for row in resources)

    def test_sample_resources_requires_telemetry(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "e1", "--scale", "smoke", "--sample-resources"])
        assert excinfo.value.code == 2


def _sample(pid=42, source="parent", *, run="r1", **readings):
    """A ``resource_sample`` event; an unreadable reading is left out, as
    :func:`repro.observe.sample_process` leaves it out."""
    return {"ts": 0.0, "run": run, "ev": "event", "name": "resource_sample",
            "attrs": {"pid": pid, "source": source, **readings}}


RESOURCES_TITLE = "resources (peak RSS; last CPU and fd readings)"


class TestResourcesTable:
    def test_a_sample_missing_a_reading_keeps_the_previous_one(self):
        summary = summarize_events([
            _sample(rss_bytes=500, cpu_seconds=0.1, fds=6),
            _sample(cpu_seconds=0.2),
            _sample(rss_bytes=400, fds=5),
        ])
        assert summary["resources"] == [
            {"pid": "42", "source": "parent", "rss_peak_bytes": 500,
             "cpu_seconds": 0.2, "fds": 5},
        ]

    def test_rows_key_by_pid_and_source_in_first_seen_order(self):
        summary = summarize_events([
            _sample(7, "worker", rss_bytes=10),
            _sample(3, "parent", rss_bytes=30),
            _sample("7", "worker", rss_bytes=20),  # same pid, read back as text
            _sample(3, "worker", rss_bytes=40),
            _sample(7, "worker", rss_bytes=15),
        ])
        assert [
            (row["pid"], row["source"], row["rss_peak_bytes"])
            for row in summary["resources"]
        ] == [("7", "worker", 20), ("3", "parent", 30), ("3", "worker", 40)]

    def test_samples_without_pid_or_source_fold_under_a_dash(self):
        bare = {"ts": 0.0, "run": "r1", "ev": "event", "name": "resource_sample",
                "attrs": {"rss_bytes": 64}}
        summary = summarize_events([bare, dict(bare, attrs={"fds": 3})])
        assert summary["resources"] == [
            {"pid": "-", "source": "-", "rss_peak_bytes": 64,
             "cpu_seconds": None, "fds": 3},
        ]

    def test_a_row_without_readings_renders_dashes(self):
        rendered = render_summary(summarize_events([
            _sample(9, "worker"),
            _sample(8, "parent", rss_bytes=3 * 2**19, cpu_seconds=1.23456, fds=12),
        ]))
        lines = rendered.splitlines()
        table = lines[lines.index(RESOURCES_TITLE):]
        assert table[1].split() == ["pid", "source", "peak_rss_mib", "cpu_s", "fds"]
        assert table[3].split() == ["9", "worker", "-", "-", "-"]
        assert table[4].split() == ["8", "parent", "1.5", "1.2346", "12"]

    def test_samples_still_count_in_the_events_table(self):
        summary = summarize_events(
            [_sample(rss_bytes=1)] * 3 + [_sample(5, "worker", rss_bytes=2)]
        )
        assert summary["events"] == {"resource_sample": 4}
        assert len(summary["resources"]) == 2

    def test_samples_add_only_the_table_before_the_coverage_line(self):
        sampled = summarize_events([
            _span("sweep", 1.0, kind="root"),
            _span("simulate", 0.5),
            _sample(rss_bytes=2**20, fds=4),
            _sample(5, "worker", cpu_seconds=0.5),
        ])
        text = render_summary(sampled).splitlines()
        start = text.index(RESOURCES_TITLE)
        end = text.index("", start)
        assert end - start == 5  # title, header, rule and one line per row
        assert text[end + 1].startswith("coverage: phases explain")
        # Dropping the `resources` key removes exactly the table; the events
        # row still counts the samples.
        without = render_summary(
            {key: value for key, value in sampled.items() if key != "resources"}
        ).splitlines()
        assert text[:start] + text[end + 1:] == without
        assert "  resource_sample" in "\n".join(without)

    def test_last_session_filter_keeps_only_its_samples(self):
        events = [
            _sample(1, run="firstrun", rss_bytes=100),
            _sample(2, run="secondrun", rss_bytes=200),
            _sample(1, run="secondrun", rss_bytes=50),
        ]
        last = summarize_events(filter_events(events, last=True))
        assert [(row["pid"], row["rss_peak_bytes"]) for row in last["resources"]] == [
            ("2", 200), ("1", 50),
        ]
        first = summarize_events(filter_events(events, runs=["first"]))
        assert [(row["pid"], row["rss_peak_bytes"]) for row in first["resources"]] == [
            ("1", 100),
        ]

    def test_a_live_sampler_folds_into_one_parent_row(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with ResourceSampler(session, interval=60.0):
            pass
        session.close()
        samples = mem.events("resource_sample")
        (row,) = summarize_events(mem.records)["resources"]
        assert (row["pid"], row["source"]) == (str(os.getpid()), "parent")
        assert row["cpu_seconds"] == samples[-1]["attrs"]["cpu_seconds"]
        if os.path.isdir("/proc/self"):
            assert row["rss_peak_bytes"] == max(
                record["attrs"]["rss_bytes"] for record in samples
            )
            assert row["fds"] == samples[-1]["attrs"]["fds"]

    def test_pool_job_boundary_samples_fold_to_one_row_per_worker(self):
        if not os.path.isdir("/proc"):
            pytest.skip("worker samples need procfs")
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            with make_backend("processes", workers=2) as backend:
                backend.run(_pool_specs())
        peaks = {}
        for record in mem.events("resource_sample"):
            attrs = record["attrs"]
            key = (str(attrs["pid"]), attrs["source"])
            peaks[key] = max(peaks.get(key, 0), attrs["rss_bytes"])
        rows = summarize_events(mem.records)["resources"]
        assert {row["source"] for row in rows} == {"worker"}
        assert {
            (row["pid"], row["source"]): row["rss_peak_bytes"] for row in rows
        } == peaks
        assert len(rows) == len(peaks)

    def test_cli_json_keys_with_and_without_samples(self, tmp_path, capsys):
        plain_path, sampled_path = tmp_path / "plain.jsonl", tmp_path / "s.jsonl"
        for path in (plain_path, sampled_path):
            session = TelemetrySession([JsonlSink(path)])
            with session.span("sweep", kind="root", backend="serial"):
                session.span_record("simulate", 0.25, kind="phase", backend="serial")
            if path == sampled_path:
                session.event("resource_sample", pid=11, source="parent",
                              rss_bytes=4096, cpu_seconds=0.5, fds=9)
            session.close()
        summary_keys = [
            "runs", "phases", "roots", "units", "counters", "events",
            "event_specs", "phase_seconds", "root_seconds", "coverage",
        ]
        assert main(["telemetry", "summarize", str(plain_path), "--json"]) == 0
        assert list(json.loads(capsys.readouterr().out)) == summary_keys
        assert main(["telemetry", "summarize", str(sampled_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == summary_keys + ["resources"]
        (row,) = payload["resources"]
        assert list(row.items()) == [
            ("pid", "11"), ("source", "parent"), ("rss_peak_bytes", 4096),
            ("cpu_seconds", 0.5), ("fds", 9),
        ]


class TestOneFold:
    """What the event stream's one fold, ``summarize_events``, makes of
    each kind of event, and the text ``telemetry summarize`` prints."""

    def test_spans_counters_events_and_sessions_all_fold(self):
        events = [
            {"ts": 1.0, "run": "r", "ev": "session_start", "argv": []},
            dict(_span("simulate", 0.5), run="r"),
            dict(_span("simulate", 1.5), run="r"),
            {"ts": 2.0, "run": "r", "ev": "counter", "name": "slots",
             "value": 100, "attrs": {"backend": "serial"}},
            {"ts": 3.0, "run": "r", "ev": "event", "name": "fallback",
             "attrs": {"reason": "protocol"}},
            {"ts": 4.0, "run": "r", "ev": "progress", "label": "x",
             "done": 1, "total": 2},
            {"ts": 5.0, "run": "r", "ev": "session_end", "elapsed_seconds": 4.0},
        ]
        summary = summarize_events(events)
        assert summary["runs"] == ["r"]
        (phase,) = summary["phases"]
        assert (phase["name"], phase["backend"], phase["count"]) == (
            "simulate", "serial", 2,
        )
        assert phase["total"] == 2.0 and phase["max"] == 1.5
        assert summary["counters"] == {"slots": 100.0}
        assert summary["events"] == {"fallback[protocol]": 1}
        assert summary["roots"] == summary["units"] == []
        assert "resources" not in summary

    def test_sessions_are_listed_once_in_first_seen_order(self):
        events = [
            dict(_span("simulate", 0.5), run="second"),
            dict(_span("simulate", 0.5), run="first"),
            dict(_span("simulate", 0.5), run="second"),
            {"ts": 0.0, "ev": "counter", "name": "slots", "value": 1},
        ]
        summary = summarize_events(events)
        assert summary["runs"] == ["second", "first"]
        assert render_summary(summary).splitlines()[0] == (
            "telemetry summary — 2 session(s): second, first"
        )
        empty = render_summary(summarize_events([])).splitlines()
        assert empty == [
            "telemetry summary — 0 session(s): -",
            "",
            "coverage: no root spans in file",
        ]

    def test_a_live_session_and_its_jsonl_file_fold_alike(self, tmp_path):
        mem = MemorySink()
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([mem, JsonlSink(path)])
        with session.span("sweep", kind="root", backend="serial"):
            with session.span("simulate", kind="phase", backend="serial"):
                pass
            session.counter("slots", 50, backend="serial")
            session.event("vector_fallback", reason="trace", spec="abc")
        session.close()
        live = summarize_events(mem.records)
        assert live == summarize_events(read_events(path))
        assert live["counters"] == {"slots": 50.0}
        assert [row["count"] for row in live["phases"]] == [1]

    def test_span_quantiles_interpolate_linearly(self):
        (row,) = summarize_events(
            [_span("simulate", value) for value in (4.0, 1.0, 3.0, 2.0)]
        )["phases"]
        assert (row["count"], row["total"], row["max"]) == (4, 10.0, 4.0)
        assert row["mean"] == pytest.approx(2.5)
        assert row["p50"] == pytest.approx(2.5)
        assert row["p95"] == pytest.approx(3.85)

    def test_counters_sum_per_name_across_backends(self):
        def counter(name, value, backend):
            return {"ts": 0.0, "run": "r1", "ev": "counter", "name": name,
                    "value": value, "attrs": {"backend": backend}}

        summary = summarize_events([
            counter("slots", 2, "serial"), counter("slots", 3, "serial"),
            counter("slots", 1, "vector"), counter("wait_s", 0.25, "serial"),
            counter("wait_s", 0.125, "vector"),
        ])
        assert summary["counters"] == {"slots": 6.0, "wait_s": 0.375}
        rendered = render_summary(summary).splitlines()
        assert rendered[rendered.index("counters") + 1].split() == ["slots", "6"]
        assert rendered[rendered.index("counters") + 2].split() == [
            "wait_s", "0.3750",
        ]

    # A file without resource samples prints exactly this text.
    PINNED_EVENTS = [
        {"ts": 0.0, "run": "r1", "ev": "session_start", "argv": ["run", "e1"]},
        _span("sweep", 2.0, kind="root"),
        _span("build", 0.25),
        _span("simulate", 0.5, backend="vector"),
        _span("simulate", 1.0, backend="vector"),
        _span("commit", 0.125),
        _span("unit", 1.5, kind="unit"),
        {"ts": 0.0, "run": "r1", "ev": "counter", "name": "slots_simulated",
         "value": 1200, "attrs": {"backend": "vector"}},
        {"ts": 0.0, "run": "r1", "ev": "counter", "name": "queue_wait_s",
         "value": 0.0625, "attrs": {}},
        {"ts": 0.0, "run": "r1", "ev": "event", "name": "vector_fallback",
         "attrs": {"reason": "trace", "spec": "abc123"}},
        {"ts": 0.0, "run": "r1", "ev": "session_end", "elapsed_seconds": 2.0},
    ]
    PINNED_HEADER = (
        "  name               backend                 count    total_s     "
        "mean_s      p50_s      p95_s      max_s   share"
    )
    PINNED_RULE = "  " + "-" * 111
    PINNED_TEXT = [
        "telemetry summary — 1 session(s): r1",
        "",
        "roots (total wall-clock)",
        PINNED_HEADER,
        PINNED_RULE,
        "  sweep              serial                      1     2.0000     "
        "2.0000     2.0000     2.0000     2.0000  100.0%",
        "",
        "phases (per-phase / per-backend breakdown)",
        PINNED_HEADER,
        PINNED_RULE,
        "  simulate           vector                      2     1.5000     "
        "0.7500     0.7500     0.9750     1.0000   75.0%",
        "  build              serial                      1     0.2500     "
        "0.2500     0.2500     0.2500     0.2500   12.5%",
        "  commit             serial                      1     0.1250     "
        "0.1250     0.1250     0.1250     0.1250    6.2%",
        "",
        "campaign units",
        PINNED_HEADER,
        PINNED_RULE,
        "  unit               serial                      1     1.5000     "
        "1.5000     1.5000     1.5000     1.5000   75.0%",
        "",
        "counters",
        "  queue_wait_s                                       0.0625",
        "  slots_simulated                                      1200",
        "",
        "events",
        "  vector_fallback[trace]                                  1",
        "    specs: abc123",
        "",
        "coverage: phases explain 93.8% of 2.0000s root wall-clock",
    ]

    def test_text_without_samples_is_pinned(self, tmp_path, capsys):
        assert render_summary(summarize_events(self.PINNED_EVENTS)).splitlines() == (
            self.PINNED_TEXT
        )
        path = tmp_path / "t.jsonl"
        path.write_text(
            "".join(json.dumps(record) + "\n" for record in self.PINNED_EVENTS),
            encoding="utf-8",
        )
        assert main(["telemetry", "summarize", str(path)]) == 0
        assert capsys.readouterr().out == "\n".join(self.PINNED_TEXT) + "\n"

    def test_interior_garbage_and_non_objects_are_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps(_span("simulate", 0.5)) + "\n"
            "not json at all\n"
            "[1, 2, 3]\n"
            '"a string"\n'
            "\n"
            + json.dumps(_span("simulate", 0.25)) + "\n",
            encoding="utf-8",
        )
        events = read_events(path)
        assert [record["dur"] for record in events] == [0.5, 0.25]
        (row,) = summarize_events(events)["phases"]
        assert (row["count"], row["total"]) == (2, 0.75)

    def test_a_file_without_parseable_events_is_a_usage_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "t.jsonl"
        path.write_text('{"truncated\n[1]\n', encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["telemetry", "summarize", str(path)])
        assert excinfo.value.code == 2
        assert "contains no parseable events" in capsys.readouterr().err

    def test_public_names(self):
        import repro.observe
        import repro.telemetry

        assert sorted(repro.observe.__all__) == [
            "DEFAULT_ALPHA", "DEFAULT_BASELINE", "DEFAULT_FACTOR",
            "DEFAULT_INTERVAL", "DEFAULT_WINDOW", "NULL_SAMPLER",
            "ResourceSampler", "backend_layout_name", "detect_drift",
            "host_fingerprint", "record_scenario_perf", "regress_groups",
            "render_worker_table", "sample_process", "unit_imbalance",
            "worker_utilization",
        ]
        assert sorted(repro.telemetry.__all__) == [
            "JsonlSink", "MemorySink", "NULL_SESSION", "NullSession",
            "ProgressSink", "Sink", "Span", "TelemetrySession", "activate",
            "activated", "current", "deactivate", "filter_events",
            "iter_events", "read_events", "render_summary", "summarize_events",
        ]
        for module in (repro.observe, repro.telemetry):
            for name in module.__all__:
                assert getattr(module, name) is not None


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

    @staticmethod
    def _pool_events(packets, jobs):
        """The telemetry of ``jobs`` BEB batch runs on a 2-worker pool,
        under one root span."""
        from repro.experiments.plan import RunSpec, factory
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.protocols.binary_exponential import BinaryExponentialBackoff

        specs = [
            RunSpec(
                protocol=BinaryExponentialBackoff(),
                adversary=factory(CompositeAdversary, factory(BatchArrivals, packets)),
                seed=seed,
                max_slots=100_000,
            )
            for seed in range(1, jobs + 1)
        ]
        mem = MemorySink()
        with activated(TelemetrySession([mem])) as session:
            with session.span("sweep", kind="root", backend="processes"):
                with make_backend("processes", workers=2) as backend:
                    backend.run(specs)
        return mem.records

    def test_processes_backend_spans_feed_utilization(self):
        events = self._pool_events(packets=8, jobs=6)
        summary = worker_utilization(events)
        assert summary is not None
        assert summary["jobs"] == 6
        assert summary["queue_wait"]["count"] == 6
        assert all(row["busy_fraction"] <= 1.0 for row in summary["workers"])
        # Each job's span ends where the job ended, so the jobs of one
        # worker never overlap (up to the microsecond rounding of ts and dur).
        intervals = {}
        for record in events:
            pid = record.get("attrs", {}).get("worker_pid")
            if record["ev"] == "span" and pid is not None:
                end = record["ts"]
                intervals.setdefault(pid, []).append((end - record["dur"], end))
        assert sum(map(len, intervals.values())) == 6
        for spans in intervals.values():
            spans.sort()
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end - 2e-6

    def test_pooled_coverage_stays_within_root_wall_clock(self):
        # Jobs long enough that the two workers overlap for most of the run.
        events = self._pool_events(packets=200, jobs=8)
        summary = summarize_events(events)
        (simulate,) = summary["phases"]
        durations = [
            record["dur"]
            for record in events
            if record["ev"] == "span" and record.get("name") == "simulate"
        ]
        # The phase row keeps the plain sum; coverage counts the union.
        assert simulate["total"] == pytest.approx(sum(durations))
        assert summary["phase_seconds"] <= simulate["total"]
        assert 0 < summary["coverage"] <= 1.0

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
                    [MemorySink(), JsonlSink(tmp_path / f"{backend}.jsonl")]
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
            resources = summarize_events(events)["resources"]
            assert any((row["rss_peak_bytes"] or 0) > 0 for row in resources)


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

    def _perf_store(self, tmp_path):
        store_dir = tmp_path / "store"
        with ResultsStore(store_dir) as store:
            for spec_hash, seconds in [("z", 1.0)] * 6 + [("z", 3.0)] * 2 + [("m", 1.0)]:
                store.put_perf_sample(
                    spec_hash=spec_hash, backend_layout="serial", host="h",
                    seconds=seconds, label=f"workload-{spec_hash}",
                )
            store.put_perf_sample(
                spec_hash="b" * 16, backend_layout="vector", host="h2",
                seconds=5.0, runs=4, slots_per_second=1234.6,
            )
            rows = store.perf_sample_rows()
        return str(store_dir), rows

    def test_regress_text_prints_one_line_per_group_in_regress_order(
        self, tmp_path, capsys
    ):
        store_dir, rows = self._perf_store(tmp_path)
        verdicts = regress_groups(rows)
        assert main(["perf", "regress", "--store", store_dir]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" [")[0] for line in lines[:-1]] == [
            verdict["label"] or verdict["spec_hash"][:12] for verdict in verdicts
        ]
        assert lines == [
            "bbbbbbbbbbbb [vector] host=h2: insufficient history (1/4 samples)",
            "workload-m [serial] host=h: insufficient history (1/4 samples)",
            "workload-z [serial] host=h: drift — latest 3.0000s vs baseline "
            "1.0000s (x3.00, p=n/a, 2/6 samples)",
            "DRIFT: 1 group(s) regressed",
        ]

    def test_history_text_lists_every_sample_in_recording_order(
        self, tmp_path, capsys
    ):
        store_dir, rows = self._perf_store(tmp_path)
        assert main(["perf", "history", "--store", store_dir]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert header.split() == [
            "label", "layout", "host", "runs", "seconds", "slots/s", "recorded_at",
        ]
        assert len(lines) == len(rows) == 10
        assert [line.split()[:6] for line in lines] == (
            [["workload-z", "serial", "h", "0", "1.0000", "-"]] * 6
            + [["workload-z", "serial", "h", "0", "3.0000", "-"]] * 2
            + [["workload-m", "serial", "h", "0", "1.0000", "-"],
               ["bbbbbbbbbbbb", "vector", "h2", "4", "5.0000", "1235"]]
        )
        assert [line.split()[6] for line in lines] == [row["created_at"] for row in rows]

    def test_an_empty_history_prints_a_hint_and_passes(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        ResultsStore(store_dir).close()
        assert main(["perf", "history", "--store", str(store_dir)]) == 0
        assert capsys.readouterr().out == (
            "(no perf samples; record them with 'python -m repro perf record')\n"
        )
        assert main(["perf", "regress", "--store", str(store_dir)]) == 0
        assert capsys.readouterr().out == "(no perf samples to test; record some first)\n"

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
