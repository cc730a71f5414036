"""Tests for the observability layer (`repro.telemetry`).

The load-bearing invariants:

* telemetry is RNG- and result-inert — store fingerprints with telemetry
  on and off are bit-identical on serial, processes, and vector backends;
* the JSONL sink stays readable after a SIGKILL mid-campaign (at most a
  truncated final line, tolerated on read);
* `telemetry summarize` reproduces a per-phase breakdown covering >= 95%
  of total run wall-clock for an E1 sweep and a campaign run;
* each E1 protocol's vector batches name the loop they ran (the
  `simulate` span's `stepping`), and `--dynamics` does not change it;
* pool worker failures surface with job index and spec identity.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.campaigns import campaign_status_rows, start_campaign
from repro.campaigns.runner import estimate_eta_seconds
from repro.cli import main
from repro.exec import make_backend
from repro.exec.backends import ProcessPoolBackend, WorkerJobError, job_identity
from repro.experiments.plan import RunSpec, factory
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.scenarios.spec import scenario_from_dict
from repro.sim.vector import engine as vector_engine
from repro.store import ResultsStore
from repro.telemetry import (
    NULL_SESSION,
    JsonlSink,
    MemorySink,
    ProgressSink,
    TelemetrySession,
    activated,
    current,
    read_events,
    render_summary,
    summarize_events,
)
from tests.conftest import run_specs

SCENARIO = {
    "id": "telemetry-mixed",
    "title": "Telemetry test scenario",
    "protocols": ["binary-exponential", "low-sensing"],
    "max_slots": 1500,
    "replications": 3,
    "arrivals": {"kind": "batch", "n": 12},
}


def _specs(count=4, n=15, max_slots=3000):
    return run_specs(
        BinaryExponentialBackoff(),
        factory(CompositeAdversary, factory(BatchArrivals, n)),
        range(1, count + 1),
        max_slots=max_slots,
    )


class TestCoreSession:
    def test_disabled_session_is_the_default_and_a_noop(self):
        tele = current()
        assert tele is NULL_SESSION
        assert not tele.enabled
        with tele.span("simulate", kind="phase"):
            pass
        tele.counter("x", 1)
        tele.event("y")
        tele.progress("z", 1, 2)  # all silently dropped

    def test_activated_scopes_the_session_and_closes_it(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with activated(session) as tele:
            assert current() is session is tele
            tele.counter("inside", 1)
        assert current() is NULL_SESSION
        kinds = [record["ev"] for record in mem.records]
        assert kinds[0] == "session_start"
        assert kinds[-1] == "session_end"
        assert "counter" in kinds

    def test_activated_none_is_a_noop_block(self):
        with activated(None) as tele:
            assert tele is NULL_SESSION

    def test_span_times_a_region_and_survives_exceptions(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        with pytest.raises(RuntimeError):
            with session.span("simulate", kind="phase", backend="serial"):
                time.sleep(0.01)
                raise RuntimeError("boom")
        (span,) = mem.spans("simulate")
        assert span["dur"] >= 0.01
        assert span["attrs"] == {"kind": "phase", "backend": "serial"}

    def test_every_event_carries_the_correlation_id(self):
        mem = MemorySink()
        session = TelemetrySession([mem], run_id="abc123")
        session.counter("c", 2)
        session.event("e", reason="because")
        session.close()
        assert all(record["run"] == "abc123" for record in mem.records)
        assert mem.counter_total("c") == 2

    def test_close_is_idempotent(self):
        mem = MemorySink()
        session = TelemetrySession([mem])
        session.close()
        session.close()
        assert [r["ev"] for r in mem.records].count("session_end") == 1


class TestJsonlSink:
    def test_each_event_is_one_flushed_json_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)])
        session.counter("c", 1)
        # Flushed per line: visible before close.
        lines = path.read_text().splitlines()
        assert len(lines) == 2  # session_start + counter
        assert all(json.loads(line) for line in lines)
        session.close()

    def test_append_mode_keeps_prior_sessions(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            TelemetrySession([JsonlSink(path)], run_id=None).close()
        events = read_events(path)
        assert len({event["run"] for event in events}) == 2

    def test_reader_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)])
        session.counter("c", 1)
        session.close()
        whole = read_events(path)
        # Simulate a kill mid-write: chop the last line in half.
        text = path.read_text()
        path.write_text(text[: len(text) - 12])
        truncated = read_events(path)
        assert truncated == whole[:-1]

    def test_summarize_reads_events_from_disk(self, tmp_path):
        path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(path)])
        with session.span("sweep", kind="root", backend="serial"):
            with session.span("simulate", kind="phase", backend="serial"):
                pass
        session.close()
        summary = summarize_events(read_events(path))
        assert summary["roots"] and summary["phases"]


class TestProgressSink:
    def test_renders_rate_and_eta_then_newline_on_completion(self):
        stream = io.StringIO()
        sink = ProgressSink(stream)
        session = TelemetrySession([sink])
        session.progress("units", 1, 4)
        time.sleep(0.01)
        session.progress("units", 4, 4)
        session.close()
        output = stream.getvalue()
        assert "units: 1/4" in output
        assert "units: 4/4" in output
        assert output.endswith("\n")

    def test_ignores_non_progress_events(self):
        stream = io.StringIO()
        session = TelemetrySession([ProgressSink(stream)])
        session.counter("c", 1)
        session.event("e")
        session.close()
        assert stream.getvalue() == ""


class TestJsonlSinkUnderProcessPool:
    def test_pool_run_writes_one_json_object_per_line(self, tmp_path):
        """Worker spans funnel through the parent session: the JSONL file
        must stay one-object-per-line even with a multiprocessing pool."""
        path = tmp_path / "pool.jsonl"
        with activated(TelemetrySession([JsonlSink(path)])):
            make_backend("processes", workers=2).run(_specs(3))
        lines = path.read_text().splitlines()
        assert lines, "pool run must emit telemetry"
        records = [json.loads(line) for line in lines]  # every line parses alone
        assert all(isinstance(record, dict) for record in records)
        spans = [r for r in records if r["ev"] == "span" and r["name"] == "simulate"]
        assert len(spans) == 3
        assert all(span["attrs"]["backend"] == "processes" for span in spans)
        events = read_events(path)
        assert events == records

    def test_read_events_on_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert read_events(path) == []


class TestProgressSinkSessions:
    class _Tty(io.StringIO):
        def isatty(self):
            return True

    def test_resume_rate_counts_executed_work_not_skips(self):
        """A resumed campaign reports the rate of work done *this session*:
        50 checkpoint skips with zero executed runs is a 0.0/s rate, not a
        5000/s fantasy that would project a nonsense ETA."""
        stream = io.StringIO()
        session = TelemetrySession([ProgressSink(stream)])
        session.progress("units", 50, 100, executed=0)
        time.sleep(0.01)
        session.progress("units", 100, 100, executed=0)
        session.close()
        final = stream.getvalue().strip().splitlines()[-1]
        assert final.startswith("units: 100/100")
        assert "(0.0/s" in final

    def test_executed_rate_drives_the_eta(self):
        stream = io.StringIO()
        sink = ProgressSink(stream)
        sink.min_interval_notty = 0.0
        session = TelemetrySession([sink])
        session.progress("units", 50, 100, executed=0)
        time.sleep(0.01)
        session.progress("units", 52, 100, executed=2)
        session.close()
        mid = stream.getvalue().strip().splitlines()[-1]
        assert mid.startswith("units: 52/100")
        assert "eta" in mid and "eta --" not in mid

    def test_non_tty_writes_plain_periodic_lines(self):
        stream = io.StringIO()
        session = TelemetrySession([ProgressSink(stream)])
        session.progress("specs", 1, 4)
        session.progress("specs", 2, 4)  # throttled: within the 2s cadence
        session.progress("specs", 4, 4)  # final always paints
        session.close()
        output = stream.getvalue()
        assert "\r" not in output
        lines = output.splitlines()
        assert lines == [line for line in lines if line]  # newline-terminated
        assert lines[0].startswith("specs: 1/4")
        assert lines[-1].startswith("specs: 4/4")
        assert "specs: 2/4" not in output

    def test_tty_repaints_with_carriage_returns(self):
        stream = self._Tty()
        sink = ProgressSink(stream)
        sink.min_interval = 0.0
        session = TelemetrySession([sink])
        session.progress("specs", 1, 4)
        session.progress("specs", 4, 4)
        session.close()
        output = stream.getvalue()
        assert output.startswith("\r")
        assert output.endswith("\n")


class TestSummarize:
    def test_phase_unit_root_partition_and_coverage(self):
        events = [
            {"ev": "span", "run": "r", "name": "sweep", "dur": 1.0,
             "attrs": {"kind": "root", "backend": "vector"}},
            {"ev": "span", "run": "r", "name": "simulate", "dur": 0.7,
             "attrs": {"kind": "phase", "backend": "vector"}},
            {"ev": "span", "run": "r", "name": "commit", "dur": 0.25,
             "attrs": {"kind": "phase", "backend": "vector"}},
            {"ev": "span", "run": "r", "name": "unit", "dur": 0.9,
             "attrs": {"kind": "unit", "backend": "vector"}},
            {"ev": "counter", "run": "r", "name": "slots", "value": 10, "attrs": {}},
            {"ev": "counter", "run": "r", "name": "slots", "value": 5, "attrs": {}},
            {"ev": "event", "run": "r", "name": "vector_fallback",
             "attrs": {"reason": "trace"}},
        ]
        summary = summarize_events(events)
        assert summary["coverage"] == pytest.approx(0.95)
        assert summary["counters"] == {"slots": 15.0}
        assert summary["events"] == {"vector_fallback[trace]": 1}
        # Unit spans are reported but never double-count into coverage.
        assert summary["units"][0]["total"] == pytest.approx(0.9)
        rendered = render_summary(summary)
        assert "95.0%" in rendered
        assert "vector_fallback[trace]" in rendered

    def test_event_rows_name_the_specs_that_fell_back(self):
        events = [
            {"ev": "event", "run": "r", "name": "vector_fallback",
             "attrs": {"reason": "trace", "spec": f"spec{i:02d}"}}
            for i in range(6)
        ]
        summary = summarize_events(events)
        assert summary["events"] == {"vector_fallback[trace]": 6}
        assert summary["event_specs"]["vector_fallback[trace]"] == [
            f"spec{i:02d}" for i in range(6)
        ]
        rendered = render_summary(summary)
        assert "specs: spec00, spec01, spec02, spec03 +2 more" in rendered

    def test_no_roots_means_no_coverage_claim(self):
        summary = summarize_events(
            [{"ev": "span", "run": "r", "name": "simulate", "dur": 0.1,
              "attrs": {"kind": "phase"}}]
        )
        assert summary["coverage"] is None
        assert "no root spans" in render_summary(summary)


class TestBackendInstrumentation:
    def test_serial_backend_emits_build_simulate_and_counters(self):
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            results = make_backend("serial").run(_specs(2))
        assert len(mem.spans("build")) == 2
        assert len(mem.spans("simulate")) == 2
        assert mem.counter_total("slots_simulated") == sum(
            r.num_slots for r in results
        )
        assert mem.counter_total("packets_processed") == sum(
            len(r.packets) for r in results
        )

    def test_processes_backend_attributes_workers_and_queue_wait(self):
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            results = make_backend("processes", workers=2).run(_specs(3))
        spans = mem.spans("simulate")
        assert len(spans) == 3
        for span in spans:
            assert span["attrs"]["backend"] == "processes"
            assert span["attrs"]["worker_pid"] > 0
            assert span["attrs"]["queue_wait"] >= 0.0
        assert mem.counter_total("slots_simulated") == sum(
            r.num_slots for r in results
        )

    def test_vector_backend_emits_batch_events_and_hot_loop_counters(
        self, monkeypatch
    ):
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            results = make_backend("vector").run(_specs(3))
        (batch,) = mem.events("vector_batch")
        assert batch["attrs"]["jobs"] == 3
        assert mem.counter_total("replications") == 3
        assert mem.counter_total("slots_simulated") == sum(
            r.num_slots for r in results
        )
        # BEB batches step by row: resolved plus bulk-recorded row-slots
        # cover every row's run.
        (simulate,) = mem.spans("simulate")
        assert simulate["attrs"]["stepping"] == "rows"
        assert mem.counter_total("row_slots_resolved") + mem.counter_total(
            "row_slots_skipped"
        ) == sum(r.num_slots for r in results)
        assert mem.counter_total("channel_accesses") == sum(
            p.sends + p.listens for r in results for p in r.packets
        )
        assert mem.spans("simulate") and mem.spans("finalize")

        # The same batch forced into lockstep: stepped rounds plus
        # bulk-recorded idle slots cover the batch.
        monkeypatch.setattr(vector_engine, "steps_rows", lambda *args: False)
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            results = make_backend("vector").run(_specs(3))
        (simulate,) = mem.spans("simulate")
        assert simulate["attrs"]["stepping"] == "lockstep"
        assert mem.counter_total("kernel_invocations") + mem.counter_total(
            "idle_slots_skipped"
        ) == max(r.num_slots for r in results)

    def test_vector_fallback_event_names_the_reason(self):
        from repro.adversary.arrivals import TraceArrivals

        trace_spec = RunSpec(
            protocol=BinaryExponentialBackoff(),
            adversary=factory(
                CompositeAdversary, factory(TraceArrivals, (3, 0, 2, 1))
            ),
            seed=1,
            max_slots=500,
        )
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            make_backend("vector").run([trace_spec])
        (event,) = mem.events("vector_fallback")
        assert event["attrs"]["reason"]
        assert event["attrs"]["spec"] == trace_spec.cache_key()[:10]

    def test_vector_fallback_of_a_spec_without_a_hash(self):
        # A plain-callable adversary leaves the spec without a cache key:
        # the fallback event names no spec, and the run is the one
        # telemetry-off gives.
        from repro.adversary.adaptive import BacklogCouplingAdversary
        from repro.experiments.plan import SweepPlan

        plan = SweepPlan()
        plan.add_group(
            BinaryExponentialBackoff(),
            lambda: BacklogCouplingAdversary(2, 10),
            [1],
            max_slots=2000,
        )
        assert plan.specs[0].cache_key() is None
        plain = plan.run(make_backend("vector"))
        mem = MemorySink()
        with activated(TelemetrySession([mem])):
            observed = plan.run(make_backend("vector"))
        assert [r.summary() for r in observed.results] == [
            r.summary() for r in plain.results
        ]
        assert [r.packets for r in observed.results] == [
            r.packets for r in plain.results
        ]
        (event,) = mem.events("vector_fallback")
        assert event["attrs"]["spec"] is None

    def test_cache_backend_emits_lookup_event_and_commit_spans(self, tmp_path):
        mem = MemorySink()
        specs = _specs(2)
        with activated(TelemetrySession([mem])):
            with make_backend("serial", cache_dir=tmp_path / "c") as backend:
                backend.run(specs)
                backend.run(specs)
        lookups = mem.events("cache_lookup")
        assert [e["attrs"]["hits"] for e in lookups] == [0, 2]
        assert any(
            span["attrs"].get("op") == "store" for span in mem.spans("commit")
        )

    def test_results_identical_with_telemetry_on_and_off(self):
        specs = _specs(3)
        baseline = [r.summary() for r in make_backend("serial").run(specs)]
        with activated(TelemetrySession([MemorySink()])):
            instrumented = [r.summary() for r in make_backend("serial").run(specs)]
        assert instrumented == baseline
        vec_base = [r.summary() for r in make_backend("vector").run(specs)]
        with activated(TelemetrySession([MemorySink()])):
            vec_inst = [r.summary() for r in make_backend("vector").run(specs)]
        assert vec_inst == vec_base


class TestWorkerJobError:
    def test_worker_failure_names_job_and_spec(self):
        specs = _specs(3)
        bad = RunSpec(
            protocol=BinaryExponentialBackoff(),
            adversary=factory(CompositeAdversary, factory(BatchArrivals, -1)),
            seed=9,
            max_slots=500,
        )
        jobs = [specs[0], bad, specs[1]]
        with pytest.raises(WorkerJobError) as excinfo:
            ProcessPoolBackend(workers=2).run(jobs)
        error = excinfo.value
        assert error.job_index == 1
        assert "BinaryExponentialBackoff" in error.job_identity
        assert "seed=9" in error.job_identity
        assert error.cause_type == "ValueError"
        assert "job 1" in str(error)

    def test_worker_error_survives_pickling(self):
        error = WorkerJobError(3, "Proto spec=abcd seed=7", "ValueError", "bad n")
        clone = pickle.loads(pickle.dumps(error))
        assert (clone.job_index, clone.job_identity) == (3, "Proto spec=abcd seed=7")
        assert str(clone) == str(error)

    def test_job_identity_prefers_hash_protocol_and_seed(self):
        (spec,) = _specs(1)
        identity = job_identity(spec)
        assert "BinaryExponentialBackoff" in identity
        assert f"spec={spec.cache_key()[:12]}" in identity
        assert "seed=1" in identity


class TestFingerprintInvariance:
    """--telemetry on/off must be bit-identical on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "processes", "vector"])
    def test_campaign_fingerprints_match_with_telemetry_on_and_off(
        self, tmp_path, backend
    ):
        fingerprints = {}
        for mode in ("off", "on"):
            store = ResultsStore(tmp_path / f"{backend}-{mode}")
            session = (
                TelemetrySession([MemorySink(), JsonlSink(tmp_path / f"{mode}.jsonl")])
                if mode == "on"
                else None
            )
            with activated(session):
                start_campaign(
                    store,
                    scenario_from_dict(SCENARIO),
                    backend_name=backend,
                    workers=2 if backend == "processes" else None,
                )
            fingerprints[mode] = store.fingerprint()
            store.close()
        assert fingerprints["on"] == fingerprints["off"]


class TestCampaignUnitSpans:
    def test_unit_spans_persist_and_status_reports_timing(self, tmp_path):
        store = ResultsStore(tmp_path / "s")
        outcome = start_campaign(
            store, scenario_from_dict(SCENARIO), backend_name="vector"
        )
        units = store.campaign_units(outcome.campaign_id)
        assert units, "campaign units must persist without telemetry"
        assert all(unit["elapsed_seconds"] >= 0 for unit in units)
        assert all(unit["started_at"] for unit in units)
        (row,) = campaign_status_rows(store)
        assert row["units_done"] == len(units)
        assert row["slowest_unit_seconds"] >= 0
        assert row["eta_seconds"] is None  # complete campaigns have no ETA
        store.close()

    def test_interrupted_campaign_reports_eta(self, tmp_path):
        from repro.campaigns import CampaignInterrupted

        store = ResultsStore(tmp_path / "s")
        with pytest.raises(CampaignInterrupted):
            start_campaign(
                store,
                scenario_from_dict(SCENARIO),
                backend_name="serial",
                fail_after_units=1,
            )
        (row,) = campaign_status_rows(store)
        assert row["status"] == "running"
        assert row["units_done"] == 1
        assert row["eta_seconds"] is not None and row["eta_seconds"] > 0

    def test_eta_estimator_edge_cases(self):
        assert estimate_eta_seconds(0, 10, 0.0) is None
        assert estimate_eta_seconds(10, 10, 5.0) is None
        assert estimate_eta_seconds(5, 10, 5.0) == pytest.approx(5.0)

    def test_campaign_show_notes_include_unit_timing(self, tmp_path):
        from repro.campaigns import campaign_report

        store = ResultsStore(tmp_path / "s")
        outcome = start_campaign(
            store, scenario_from_dict(SCENARIO), backend_name="serial"
        )
        report = campaign_report(store, outcome.campaign_id)
        notes = "\n".join(report.notes)
        assert "timing:" in notes
        assert "slowest unit" in notes
        store.close()


class TestCliTelemetry:
    # The loop each E1 protocol's vector batches run: the send-only kernels
    # step by row, the listening and every-slot kernels in lockstep.
    E1_STEPPING = {
        "binary-exponential": {"rows"},
        "polynomial": {"rows"},
        "fixed-probability": {"rows"},
        "low-sensing": {"lockstep"},
        "full-sensing-mw": {"lockstep"},
        "sawtooth": {"lockstep"},
    }

    @pytest.mark.parametrize("dynamics", [[], ["--dynamics", "500"]],
                             ids=["plain", "dynamics"])
    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_e1_sweep_summarize_covers_95_percent(
        self, tmp_path, capsys, backend, dynamics
    ):
        tele_path = tmp_path / "sweep.jsonl"
        assert main(
            ["run", "e1", "--scale", "smoke", "--backend", backend,
             "--telemetry", str(tele_path), *dynamics]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(tele_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["coverage"] >= 0.95
        assert any(row["name"] == "sweep" for row in summary["roots"])
        if backend == "vector":
            # Collected outputs (--dynamics) must not change the loop.
            stepping = {}
            for record in read_events(tele_path):
                attrs = record.get("attrs", {})
                if record.get("name") == "simulate" and "stepping" in attrs:
                    stepping.setdefault(attrs["protocol"], set()).add(
                        attrs["stepping"]
                    )
            assert stepping == self.E1_STEPPING
            assert summary["counters"]["slots_simulated"] > 0

    def test_campaign_run_summarize_covers_95_percent(self, tmp_path, capsys):
        tele_path = tmp_path / "campaign.jsonl"
        scenario_file = tmp_path / "scenario.json"
        scenario_file.write_text(json.dumps(SCENARIO))
        assert main(
            [
                "campaign", "run", str(scenario_file),
                "--backend", "vector",
                "--store", str(tmp_path / "store"),
                "--telemetry", str(tele_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(tele_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["coverage"] >= 0.95
        assert any(row["name"] == "campaign" for row in summary["roots"])
        assert summary["units"], "campaign unit spans should be in the file"

    def test_summarize_table_renders(self, tmp_path, capsys):
        tele_path = tmp_path / "t.jsonl"
        session = TelemetrySession([JsonlSink(tele_path)])
        with session.span("sweep", kind="root", backend="serial"):
            with session.span("simulate", kind="phase", backend="serial"):
                pass
        session.close()
        assert main(["telemetry", "summarize", str(tele_path)]) == 0
        output = capsys.readouterr().out
        assert "coverage: phases explain" in output

    def test_summarize_missing_file_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["telemetry", "summarize", str(tmp_path / "nope.jsonl")])

    def test_progress_flag_renders_on_stderr(self, tmp_path, capsys):
        assert main(["run", "e1", "--scale", "smoke", "--progress"]) == 0
        assert "serial jobs" in capsys.readouterr().err


class TestSigkillSafety:
    def test_jsonl_readable_after_sigkill_mid_campaign(self, tmp_path):
        """A killed campaign leaves a parseable telemetry file behind."""
        scenario_file = tmp_path / "scenario.json"
        scenario = dict(SCENARIO)
        scenario["max_slots"] = 200_000
        scenario["replications"] = 6
        scenario["arrivals"] = {"kind": "poisson", "rate": 0.4}
        scenario_file.write_text(json.dumps(scenario))
        tele_path = tmp_path / "killed.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "campaign", "run",
                str(scenario_file),
                "--backend", "serial",
                "--checkpoint-every", "1",
                "--store", str(tmp_path / "store"),
                "--telemetry", str(tele_path),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if tele_path.exists() and tele_path.stat().st_size > 0:
                break
            if process.poll() is not None:
                break
            time.sleep(0.02)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        assert tele_path.exists(), "sink must create the file on session start"
        events = read_events(tele_path)
        assert events, "events written before the kill must parse"
        assert events[0]["ev"] == "session_start"
        # The summary is computable from whatever survived.
        summarize_events(events)
