"""Tests for windowed simulation-dynamics trajectories (repro.dynamics).

Four layers, mirroring the telemetry contract tests:

* **unit arithmetic** — ``build_trajectory`` turns cumulative boundary
  snapshots into per-window series; accumulator, budget probing, render
  and JSON/CSV round-trips;
* **engine parity** — the vector engine's materialised trajectory must
  equal, bit for bit, a scalar-semantics reference sampler driven by the
  vector engine's own coins (the same harness that proves reactive-kernel
  identity in ``test_vector_reactive``);
* **inertness** — enabling dynamics never changes packets, backlog
  series, or store fingerprints, on any backend;
* **regression diffing** — ``compare_trajectory_sets`` flags a seeded
  mid-run-only regression whose end-of-run aggregates cancel out, and
  ``campaign diff --trajectories`` exits non-zero on it.
"""

from __future__ import annotations

import json
import math
from collections import Counter

import numpy as np
import pytest

from access_reference import reference_run
from repro.adversary.arrivals import BatchArrivals
from repro.adversary.composite import CompositeAdversary
from repro.adversary.jamming import NoJamming, ReactiveSuccessJammer
from repro.channel.feedback import SlotOutcome
from repro.dynamics import (
    ARRAY_FIELDS,
    DEFAULT_WINDOW,
    DynamicsAccumulator,
    DynamicsTrajectory,
    WindowSnapshot,
    build_trajectory,
    compare_trajectory_sets,
    derive_window,
    jammer_budget,
    render_trajectory,
    sparkline,
    trajectory_to_csv,
    trajectory_to_json,
    windowed_series,
)
from repro.exec import DynamicsBackend, SerialBackend, make_backend
from repro.experiments.plan import RunSpec, SweepPlan, factory
from repro.metrics.collectors import MetricsCollector, SlotObservation
from repro.protocols.binary_exponential import BinaryExponentialBackoff
from repro.sim.engine import Simulator
from repro.sim.results import PacketRecord, SimulationResult
from repro.sim.vector import VectorSimulator
from tests.conftest import run_specs


def packet_tuples(result):
    return [
        (p.packet_id, p.arrival_slot, p.departure_slot, p.sends, p.listens)
        for p in result.packets
    ]


def _spec(seed, *, dynamics_window=0, max_slots=4000, batch=12, budget=6):
    return RunSpec(
        protocol=BinaryExponentialBackoff(),
        adversary=factory(
            CompositeAdversary,
            factory(BatchArrivals, batch),
            factory(ReactiveSuccessJammer, budget=budget),
        ),
        seed=seed,
        max_slots=max_slots,
        dynamics_window=dynamics_window,
    )


# ---------------------------------------------------------------------------
# Unit arithmetic
# ---------------------------------------------------------------------------


class TestBuildTrajectory:
    def _snapshots(self):
        return [
            WindowSnapshot(
                num_slots=10, arrivals=8, successes=2, collisions=1, jammed=3,
                sends=12, listens=4, backlog=6, window_sum=24.0, window_count=6,
                probability_sum=1.5,
            ),
            WindowSnapshot(
                num_slots=20, arrivals=8, successes=6, collisions=1, jammed=5,
                sends=20, listens=9, backlog=2, window_sum=10.0, window_count=2,
                probability_sum=0.5,
            ),
            # Partial final window (the run drained at slot 24).
            WindowSnapshot(
                num_slots=24, arrivals=8, successes=8, collisions=1, jammed=5,
                sends=24, listens=11, backlog=0, window_sum=0.0, window_count=0,
                probability_sum=0.0,
            ),
        ]

    def test_per_window_series(self):
        trajectory = build_trajectory(10, 24, self._snapshots(), budget=7)
        assert trajectory.num_windows == 3
        assert trajectory.slots.tolist() == [10, 10, 4]
        assert trajectory.arrivals.tolist() == [8, 0, 0]
        assert trajectory.successes.tolist() == [2, 4, 2]
        assert trajectory.collisions.tolist() == [1, 0, 0]
        assert trajectory.jammed.tolist() == [3, 2, 0]
        # idle = width - successes - collisions - jammed, per window.
        assert trajectory.idle.tolist() == [4, 4, 2]
        assert trajectory.backlog.tolist() == [6, 2, 0]
        assert trajectory.cumulative_sends.tolist() == [12, 20, 24]
        assert trajectory.cumulative_listens.tolist() == [4, 9, 11]
        assert trajectory.throughput.tolist() == [0.2, 0.4, 0.5]
        assert trajectory.contention.tolist() == [1.5, 0.5, 0.0]
        assert trajectory.mean_window.tolist()[:2] == [4.0, 5.0]
        assert math.isnan(trajectory.mean_window[2])
        assert trajectory.mean_send_probability.tolist()[:2] == [0.25, 0.25]
        assert math.isnan(trajectory.mean_send_probability[2])
        assert trajectory.jammer_budget_remaining.tolist() == [4.0, 2.0, 2.0]
        assert trajectory.window_bounds() == [(0, 9), (10, 19), (20, 23)]

    def test_no_budget_leaves_budget_gauge_nan(self):
        trajectory = build_trajectory(10, 24, self._snapshots(), budget=None)
        assert np.isnan(trajectory.jammer_budget_remaining).all()

    def test_snapshots_must_advance(self):
        snaps = self._snapshots()
        with pytest.raises(ValueError, match="advance"):
            build_trajectory(10, 24, [snaps[0], snaps[0]])

    def test_final_snapshot_must_cover_the_run(self):
        with pytest.raises(ValueError, match="final snapshot"):
            build_trajectory(10, 30, self._snapshots())

    def test_dict_round_trip_preserves_equality(self):
        trajectory = build_trajectory(10, 24, self._snapshots(), budget=7)
        clone = DynamicsTrajectory.from_dict(
            json.loads(json.dumps(trajectory.to_dict()))
        )
        assert clone == trajectory
        # NaN encodes as None in the JSON form.
        assert trajectory.to_dict()["mean_window"][2] is None

    def test_accumulator_builds_the_same_trajectory(self):
        accumulator = DynamicsAccumulator(10, budget=7)
        for snap in self._snapshots():
            assert accumulator.pending(snap.num_slots)
            accumulator.sample(
                num_slots=snap.num_slots, arrivals=snap.arrivals,
                successes=snap.successes, collisions=snap.collisions,
                jammed=snap.jammed, sends=snap.sends, listens=snap.listens,
                backlog=snap.backlog, window_sum=snap.window_sum,
                window_count=snap.window_count,
                probability_sum=snap.probability_sum,
            )
        assert not accumulator.pending(24)
        assert accumulator.build(24) == build_trajectory(
            10, 24, self._snapshots(), budget=7
        )

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            DynamicsAccumulator(0)


class TestJammerBudget:
    def test_composite_and_bare_jammers(self):
        composite = CompositeAdversary(
            BatchArrivals(5), ReactiveSuccessJammer(budget=9)
        )
        assert jammer_budget(composite) == 9.0
        assert jammer_budget(ReactiveSuccessJammer(budget=4)) == 4.0
        assert jammer_budget(CompositeAdversary(BatchArrivals(5), NoJamming())) is None
        assert jammer_budget(object()) is None


class TestRendering:
    def _trajectory(self):
        spec = _spec(3, dynamics_window=100)
        return Simulator(spec.build_config()).run().dynamics

    def test_sparkline_shapes(self):
        assert sparkline(np.array([])) == ""
        assert len(sparkline(np.linspace(0, 1, 200), width=40)) == 40
        assert set(sparkline(np.array([math.nan, math.nan]))) == {"·"}

    def test_render_lists_every_metric(self):
        rendered = render_trajectory(self._trajectory(), label="test-run")
        assert "test-run" in rendered
        for name in ARRAY_FIELDS:
            if name == "slots":
                continue
            assert name in rendered

    def test_csv_has_one_row_per_window(self):
        trajectory = self._trajectory()
        lines = trajectory_to_csv(trajectory).strip().splitlines()
        assert len(lines) == trajectory.num_windows + 1
        assert lines[0].startswith("window_index,first_slot,last_slot")

    def test_json_round_trips(self):
        trajectory = self._trajectory()
        payload = json.loads(trajectory_to_json(trajectory))
        assert DynamicsTrajectory.from_dict(payload) == trajectory


# ---------------------------------------------------------------------------
# Engine parity: scalar-semantics reference on the vector engine's coins
# ---------------------------------------------------------------------------


def reference_trajectory(adversary, seed, max_slots, window):
    """Sample a trajectory by re-running one replication with scalar
    components on the vector coins, in the access-driven coin order (the
    same harness that proves reactive-kernel identity in
    ``test_vector_reactive``), snapshotting at every window boundary."""
    return reference_run(
        BinaryExponentialBackoff(), adversary, seed, max_slots, dynamics_window=window
    ).trajectory


class TestVectorTrajectoryParity:
    @pytest.mark.parametrize("window", (64, 100, 1000))
    def test_vector_matches_scalar_reference_bit_for_bit(self, window):
        for seed in (3, 11, 42):
            vector = VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(12), ReactiveSuccessJammer(budget=6)
                    ),
                    [seed],
                    max_slots=4000,
                    dynamics_window=window,
                )
            ).run()[0]
            reference = reference_trajectory(
                CompositeAdversary(
                    BatchArrivals(12), ReactiveSuccessJammer(budget=6)
                ),
                seed, 4000, window,
            )
            assert vector.dynamics is not None
            assert vector.dynamics == reference

    def test_mega_batch_trajectories_bit_identical_to_single_groups(self):
        def groups(dynamics_window):
            return [
                [
                    RunSpec(
                        protocol=BinaryExponentialBackoff(),
                        adversary=factory(
                            CompositeAdversary,
                            factory(BatchArrivals, 15),
                            factory(ReactiveSuccessJammer, budget=budget),
                        ),
                        seed=seed,
                        max_slots=8000,
                        dynamics_window=dynamics_window,
                    )
                    for seed in (1, 2, 3)
                ]
                for budget in (5, 9)
            ]

        mega = VectorSimulator.from_specs(
            [spec for specs in groups(128) for spec in specs]
        ).run()
        flat = iter(mega)
        for specs in groups(128):
            for expected in VectorSimulator.from_specs(specs).run():
                got = next(flat)
                assert packet_tuples(got) == packet_tuples(expected)
                assert got.dynamics == expected.dynamics


class TestScalarTrajectoryConsistency:
    def test_accumulator_agrees_with_the_collector(self):
        result = Simulator(_spec(7, dynamics_window=100).build_config()).run()
        trajectory = result.dynamics
        collector = result.collector
        assert trajectory is not None
        assert trajectory.num_slots == result.num_slots
        assert int(trajectory.slots.sum()) == result.num_slots
        assert int(trajectory.arrivals.sum()) == collector.num_arrivals
        assert int(trajectory.successes.sum()) == collector.num_successes
        assert int(trajectory.collisions.sum()) == collector.num_collisions
        assert int(trajectory.jammed.sum()) == collector.num_jammed
        assert int(trajectory.cumulative_sends[-1]) == collector.total_sends
        assert int(trajectory.cumulative_listens[-1]) == collector.total_listens
        assert int(trajectory.backlog[-1]) == collector.backlog

    def test_default_window_comes_from_the_config(self):
        result = Simulator(_spec(7).build_config()).run()
        assert result.dynamics is None


# ---------------------------------------------------------------------------
# Inertness: dynamics on/off never changes results or fingerprints
# ---------------------------------------------------------------------------


class TestDynamicsInertness:
    def test_scalar_results_bit_identical(self):
        bare = Simulator(_spec(11).build_config()).run()
        sampled = Simulator(_spec(11, dynamics_window=64).build_config()).run()
        assert packet_tuples(bare) == packet_tuples(sampled)
        assert vars(bare.collector) == vars(sampled.collector)

    def test_vector_results_bit_identical(self):
        def run(window):
            return VectorSimulator.from_specs(
                run_specs(
                    BinaryExponentialBackoff(),
                    CompositeAdversary(
                        BatchArrivals(12), ReactiveSuccessJammer(budget=6)
                    ),
                    [3, 7],
                    max_slots=4000,
                    dynamics_window=window,
                )
            ).run()

        for bare, sampled in zip(run(0), run(64)):
            assert packet_tuples(bare) == packet_tuples(sampled)
            assert vars(bare.collector) == vars(sampled.collector)
            assert bare.dynamics is None
            assert sampled.dynamics is not None

    def test_spec_cache_key_ignores_dynamics(self):
        assert _spec(3).cache_key() == _spec(3, dynamics_window=500).cache_key()
        assert (
            _spec(3).build_config().describe()
            == _spec(3, dynamics_window=500).build_config().describe()
        )

    @pytest.mark.parametrize("backend_name", ("serial", "processes", "vector"))
    def test_campaign_store_fingerprints_identical(self, backend_name, tmp_path):
        from repro.campaigns import start_campaign
        from repro.scenarios.catalog import get_scenario
        from repro.store import ResultsStore

        scenario = get_scenario("onoff-jamming")
        fingerprints = {}
        trajectory_counts = {}
        for label, window in (("off", 0), ("on", 256)):
            with ResultsStore(tmp_path / f"{backend_name}-{label}") as store:
                start_campaign(
                    store,
                    scenario,
                    scale="smoke",
                    seeds=[1, 2],
                    backend_name=backend_name,
                    dynamics_window=window,
                )
                fingerprints[label] = store.fingerprint()
                trajectory_counts[label] = len(store.trajectory_rows())
        assert fingerprints["on"] == fingerprints["off"]
        assert trajectory_counts["off"] == 0
        assert trajectory_counts["on"] > 0


class TestDynamicsBackend:
    def test_wrapper_injects_the_window(self):
        backend = DynamicsBackend(SerialBackend(), 100)
        results = backend.run([_spec(3)])
        assert results[0].dynamics is not None
        assert results[0].dynamics.window == 100
        assert backend.describe()["dynamics_window"] == 100

    def test_wrapper_results_match_plan_level_dynamics(self):
        wrapped = DynamicsBackend(SerialBackend(), 100).run([_spec(3)])
        direct = SerialBackend().run([_spec(3, dynamics_window=100)])
        assert wrapped[0].dynamics == direct[0].dynamics
        assert packet_tuples(wrapped[0]) == packet_tuples(direct[0])

    def test_wrapper_passes_jobs_without_the_field_through(self):
        class OpaqueJob:
            def build_config(self):
                return _spec(3).build_config()

        (result,) = DynamicsBackend(SerialBackend(), 100).run([OpaqueJob()])
        assert result.dynamics is None

    def test_make_backend_wraps(self):
        backend = make_backend("serial", dynamics_window=50)
        assert isinstance(backend, DynamicsBackend)
        with pytest.raises(ValueError):
            DynamicsBackend(SerialBackend(), 0)

    def test_plan_group_option_reaches_the_specs(self):
        plan = SweepPlan()
        plan.add_group(
            BinaryExponentialBackoff(),
            factory(CompositeAdversary, factory(BatchArrivals, 6)),
            [1, 2],
            dynamics_window=200,
        )
        results = plan.run(SerialBackend())
        for result in results.results:
            assert result.dynamics is not None
            assert result.dynamics.window == 200


# ---------------------------------------------------------------------------
# Store round-trip
# ---------------------------------------------------------------------------


class TestTrajectoryStore:
    def _result(self, seed, window=100):
        return Simulator(_spec(seed, dynamics_window=window).build_config()).run()

    def test_round_trip_and_artifact_inertness(self, tmp_path):
        from repro.store import ResultsStore

        with ResultsStore(tmp_path / "store") as store:
            result = self._result(3)
            store.put_run("spec-a", 3, "scalar", result)
            # The run artifact never contains the trajectory...
            stored_result = store.get_result("spec-a", 3, "scalar")
            assert stored_result.dynamics is None
            # ...but the trajectory table round-trips it exactly,
            assert store.get_trajectory("spec-a", 3, "scalar") == result.dynamics
            # and putting it never moved the fingerprint.
            fingerprint = store.fingerprint()
            store.put_trajectory("spec-a", 3, "scalar", result.dynamics)
            assert store.fingerprint() == fingerprint
            rows = store.trajectory_rows(spec_prefix="spec-")
            assert len(rows) == 1
            assert rows[0]["window"] == 100
            assert store.stats()["trajectories"] == 1

    def test_prune_sweeps_trajectory_artifacts(self, tmp_path):
        from repro.store import ResultsStore

        with ResultsStore(tmp_path / "store") as store:
            result = self._result(3)
            store.put_run("spec-a", 3, "scalar", result, source="cache")
            assert store.trajectory_rows()
            removed = store.prune(older_than_days=-1)
            assert removed["removed_runs"] == 1
            assert store.trajectory_rows() == []
            assert store.get_trajectory("spec-a", 3, "scalar") is None


# ---------------------------------------------------------------------------
# Trajectory-level regression diffing
# ---------------------------------------------------------------------------

REGRESSION_SLOTS = 1600
REGRESSION_ARRIVALS = 120
REGRESSION_SUCCESSES = 80


def _packet_slots(seed, *, regressed):
    """(arrival, departure) slots of every packet, in arrival order.

    Both sides deliver 80 packets with the same latencies (``10k + jitter +
    1`` for the k-th delivered packet) and leave 40 undelivered packets that
    arrived at slot 0, so the per-packet distributions (latency, accesses)
    and the aggregate throughput agree.  The healthy side admits delivered
    packet k at slot ``10k`` and delivers it at ``20k + jitter``: one
    success every 20 slots.  The regressed side admits every packet at
    slot 0 and delivers packet k at ``10k + jitter``: twice as fast for the
    first half and nothing afterwards — same 80 successes, same final
    backlog, different trajectory.  The seed-dependent jitter varies the
    latencies between replicates.
    """
    jitter = seed % 4
    if regressed:
        delivered = [(0, 10 * k + jitter) for k in range(REGRESSION_SUCCESSES)]
    else:
        delivered = [(10 * k, 20 * k + jitter) for k in range(REGRESSION_SUCCESSES)]
    undelivered = [(0, None)] * (REGRESSION_ARRIVALS - REGRESSION_SUCCESSES)
    return sorted(undelivered + delivered, key=lambda slots: slots[0])


def synthetic_result(seed, *, regressed):
    """A hand-built result: packets on the schedule, collector to match."""
    packets = [
        PacketRecord(
            packet_id=packet_id,
            arrival_slot=arrival,
            departure_slot=departure,
            sends=0 if departure is None else 1,
            listens=0,
        )
        for packet_id, (arrival, departure) in enumerate(
            _packet_slots(seed, regressed=regressed)
        )
    ]
    arrivals = Counter(p.arrival_slot for p in packets)
    departures = {p.departure_slot for p in packets}
    collector = MetricsCollector()
    backlog = 0
    for slot in range(REGRESSION_SLOTS):
        active_before = backlog + arrivals[slot]
        success = slot in departures
        backlog = active_before - success
        collector.observe(
            SlotObservation(
                slot=slot,
                outcome=SlotOutcome.SUCCESS if success else SlotOutcome.EMPTY,
                jammed=False,
                arrivals=arrivals[slot],
                active_before=active_before,
                active_after=backlog,
                num_senders=int(success),
                num_listeners=0,
            )
        )
    return SimulationResult(
        config_description={"synthetic": True},
        protocol_name="synthetic",
        seed=seed,
        num_slots=REGRESSION_SLOTS,
        drained=False,
        collector=collector,
        packets=packets,
    )


def _store_synthetic_campaign(store, campaign_id, *, regressed, seeds):
    store.create_campaign(
        campaign_id,
        scenario_id="synthetic",
        scenario_hash="synthetic-hash",
        definition=None,
        scale="default",
        seeds=seeds,
        backend="serial",
        total_runs=len(seeds),
    )
    for position, seed in enumerate(seeds):
        spec_hash = f"{campaign_id}-spec"
        result = synthetic_result(seed, regressed=regressed)
        store.put_run(spec_hash, seed, "scalar", result, source="campaign")
        store.record_campaign_unit(
            campaign_id,
            [(position, 0, "synthetic", spec_hash, seed, "scalar")],
            elapsed_seconds=0.0,
            unit_index=position,
        )
    store.finish_campaign(campaign_id)


class TestTrajectoryDiff:
    SEEDS = [1, 2, 3, 4, 5, 6]

    def _results(self, *, regressed):
        return [
            synthetic_result(seed, regressed=regressed) for seed in self.SEEDS
        ]

    def test_same_path_passes(self):
        report = compare_trajectory_sets(
            self._results(regressed=False), self._results(regressed=False)
        )
        assert report.passed, report.render()
        assert report.comparisons == []
        assert "16 Welch-tested" in report.notes[-1]

    def test_mid_run_regression_is_flagged(self):
        healthy = self._results(regressed=False)
        regressed = self._results(regressed=True)
        # The aggregates genuinely cancel: totals agree on both sides.
        for left, right in zip(healthy, regressed):
            assert left.num_delivered == right.num_delivered
            assert left.num_arrivals == right.num_arrivals
            assert left.collector.backlog == right.collector.backlog
        # Each hand-built collector agrees with what its packets imply.
        for result in healthy + regressed:
            counts = result.slot_counts()
            assert counts.successes[-1] == result.num_delivered
            assert counts.active_slots[-1] == result.num_active_slots
            assert result.collector.total_sends == sum(p.sends for p in result.packets)
        report = compare_trajectory_sets(healthy, regressed)
        assert not report.passed
        failures = report.failures()
        assert failures == report.comparisons
        # Every throughput window is Welch-tested and rejected under
        # Benjamini–Hochberg; backlog is flat across replicates, so its
        # windows fall back to the relative tolerance.  The backlog paths
        # cross between windows 4 and 5 and meet again at the end, so only
        # windows 0-3 and 6-13 are more than 15% apart.
        flagged = {
            (c.metric.split()[0], int(c.metric.split()[2])): c for c in failures
        }
        assert len(flagged) == len(failures) == 28
        assert set(flagged) == {("throughput", j) for j in range(16)} | {
            ("backlog", j) for j in [0, 1, 2, 3, *range(6, 14)]
        }
        welch = [c for c in failures if c.p_value is not None]
        assert {c.metric.split()[0] for c in welch} == {"throughput"}
        assert len(welch) == 16
        assert "16 windows, 32 window comparisons, 16 Welch-tested" in (
            report.notes[-1]
        )
        assert flagged[("backlog", 3)].metric == "backlog window 3 [slots 300-399]"
        assert "[FAIL]" in report.render()

    def test_out_of_range_options_are_rejected(self):
        from repro.analysis.equivalence import OptionError

        results = self._results(regressed=False)
        for kwargs, option in (
            ({"window": 0}, "trajectory_window"),
            ({"alpha": 2.0}, "trajectory_alpha"),
            ({"alpha": 0.0}, "trajectory_alpha"),
            ({"relative_tolerance": -1.0}, "relative_tolerance"),
        ):
            with pytest.raises(OptionError) as excinfo:
                compare_trajectory_sets(results, results, **kwargs)
            assert excinfo.value.option == option

    def test_derive_window_targets_sixteen_windows(self):
        results = self._results(regressed=False)
        assert derive_window(results) == REGRESSION_SLOTS // 16
        assert derive_window([]) == 1

    def test_windowed_series_equals_attached_trajectories(self):
        result = Simulator(_spec(3, dynamics_window=100).build_config()).run()
        series = windowed_series(result, 100)
        # Derived from the packet records, equal to the attached trajectory.
        for metric in ("throughput", "backlog", "arrivals", "successes"):
            assert np.array_equal(series[metric], getattr(result.dynamics, metric))
        # Any window reproduces the run's totals.
        derived = windowed_series(result, 50)
        assert derived["successes"].sum() == result.collector.num_successes

    def test_windowed_series_of_zero_slots_is_none(self):
        result = Simulator(_spec(3).build_config()).result()
        assert result.num_slots == 0
        assert windowed_series(result, 100) is None


class TestCampaignTrajectoryDiff:
    def _build_stores(self, tmp_path):
        from repro.store import ResultsStore

        store = ResultsStore(tmp_path / "store")
        _store_synthetic_campaign(
            store, "healthy", regressed=False, seeds=TestTrajectoryDiff.SEEDS
        )
        _store_synthetic_campaign(
            store, "regressed", regressed=True, seeds=TestTrajectoryDiff.SEEDS
        )
        return store

    def test_diff_campaigns_flags_only_with_trajectories(self, tmp_path):
        from repro.campaigns import diff_campaigns

        with self._build_stores(tmp_path) as store:
            plain = diff_campaigns(store, "healthy", right_id="regressed")
            assert plain.passed, plain.render()
            flagged = diff_campaigns(
                store, "healthy", right_id="regressed", trajectories=True
            )
            assert not flagged.passed
            failures = flagged.reports["synthetic"].failures()
            assert len(failures) == 28
            assert all(" window " in c.metric for c in failures)
            assert "healthy 0.0500 vs regressed 0.1000" in failures[0].detail

    def test_cli_campaign_diff_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        self._build_stores(tmp_path).close()
        store_arg = str(tmp_path / "store")
        assert (
            main(["campaign", "diff", "healthy", "regressed", "--store", store_arg])
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "campaign", "diff", "healthy", "regressed",
                "--store", store_arg, "--trajectories",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out
        assert "[FAIL] throughput window 0 [slots 0-99]" in out
        assert (
            main(
                [
                    "campaign", "diff", "healthy", "healthy",
                    "--store", store_arg, "--trajectories",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out and "16 Welch-tested" in out

    @pytest.mark.parametrize(
        "option",
        [
            ["--alpha", "2"],
            ["--mean-alpha", "-1"],
            ["--trajectories", "--trajectory-alpha", "2"],
            ["--trajectories", "--trajectory-window", "0"],
        ],
        ids=["alpha", "mean-alpha", "trajectory-alpha", "trajectory-window"],
    )
    def test_cli_out_of_range_option_is_a_usage_error(
        self, tmp_path, capsys, option
    ):
        """A bad comparison option must not read as a verdict (exit 1)."""
        from repro.cli import main

        self._build_stores(tmp_path).close()
        argv = ["campaign", "diff", "healthy", "healthy",
                "--store", str(tmp_path / "store"), *option]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"{option[-2]} must be" in err
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# CLI surface: show / export
# ---------------------------------------------------------------------------


class TestDynamicsCli:
    def _store_with_trajectory(self, tmp_path):
        from repro.store import ResultsStore

        store = ResultsStore(tmp_path / "store")
        result = Simulator(_spec(3, dynamics_window=100).build_config()).run()
        store.put_run("abcdef123456", 3, "scalar", result)
        store.close()
        return str(tmp_path / "store"), result

    def test_show_lists_and_renders(self, tmp_path, capsys):
        from repro.cli import main

        store_arg, result = self._store_with_trajectory(tmp_path)
        assert main(["dynamics", "show", "--store", store_arg]) == 0
        listing = capsys.readouterr().out
        assert "abcdef123456"[:12] in listing
        assert main(["dynamics", "show", "abcdef", "--store", store_arg]) == 0
        rendered = capsys.readouterr().out
        assert "throughput" in rendered
        assert f"slots={result.num_slots}" in rendered

    def test_export_json_and_csv(self, tmp_path, capsys):
        from repro.cli import main

        store_arg, result = self._store_with_trajectory(tmp_path)
        assert main(["dynamics", "export", "abcdef", "--store", store_arg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert DynamicsTrajectory.from_dict(payload) == result.dynamics
        out_file = tmp_path / "out" / "trajectory.csv"
        assert (
            main(
                [
                    "dynamics", "export", "abcdef", "--store", store_arg,
                    "--format", "csv", "--out", str(out_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        lines = out_file.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == result.dynamics.num_windows + 1

    def test_ambiguous_prefix_errors(self, tmp_path, capsys):
        from repro.cli import main

        from repro.store import ResultsStore

        store = ResultsStore(tmp_path / "store")
        result = Simulator(_spec(3, dynamics_window=100).build_config()).run()
        store.put_run("aa11", 3, "scalar", result)
        store.put_run("aa22", 3, "scalar", result)
        store.close()
        with pytest.raises(SystemExit):
            main(["dynamics", "show", "aa", "--store", str(tmp_path / "store")])
        assert "ambiguous" in capsys.readouterr().err
