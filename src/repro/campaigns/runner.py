"""The checkpointed, resumable campaign runner.

Execution model
---------------

A campaign runs on one execution backend from
:func:`repro.exec.make_backend`, which chooses the engine, the lockstep
batches and each run's result layout
(:meth:`~repro.exec.ExecutionBackend.result_layout`).  The plan is
partitioned into **units**, the checkpoint granularity:

* a replication group whose runs take a lockstep layout (the vector
  backend's :data:`repro.sim.vector.RESULT_LAYOUT`) is **one unit**, one
  lockstep batch;
* every other group is chunked into scalar units of ``checkpoint_every``
  runs, filed under :data:`repro.exec.backends.SCALAR_LAYOUT`.

Every run, vectorized or not, is a deterministic function of its (spec,
seed) and layout, so each run is skipped or re-run on its own: a unit
executes only its runs missing from the store.

After a unit executes, its results are written to the store and its
membership rows committed in one transaction.  A kill therefore loses at
most the unit in flight; everything committed is durable, every store
write is idempotent (content-addressed artifacts, insert-or-ignore
registry rows), and a resumed campaign re-runs only what is missing —
producing a store bit-identical (by :meth:`~repro.store.ResultsStore.fingerprint`)
to an uninterrupted run.

Deterministic interruption for tests and benchmarks: ``fail_after_units=N``
raises :class:`CampaignInterrupted` after the N-th unit commit, which is
observably equivalent to a hard kill at that unit boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Sequence

from repro.exec import BACKEND_NAMES, SCALAR_LAYOUT, ExecutionBackend, make_backend
from repro.experiments.plan import SweepPlan
from repro.experiments.spec import ExperimentReport, ExperimentSpec
from repro.store import METRIC_COLUMNS, ResultsStore
from repro.telemetry import current as current_telemetry

#: Scalar runs committed per checkpoint transaction.
DEFAULT_CHECKPOINT_EVERY = 8


class CampaignError(ValueError):
    """A campaign request is malformed or refers to unknown state."""


class CampaignInterrupted(RuntimeError):
    """Raised by the deterministic interruption hook after a unit commit."""

    def __init__(self, campaign_id: str, units_done: int) -> None:
        super().__init__(
            f"campaign {campaign_id!r} interrupted after {units_done} unit(s) "
            "(fail_after_units hook)"
        )
        self.campaign_id = campaign_id
        self.units_done = units_done


@dataclass(frozen=True)
class CampaignOutcome:
    """What one ``run``/``resume`` invocation did."""

    campaign_id: str
    status: str  # "complete" or "running"
    total_runs: int
    executed_runs: int
    skipped_runs: int
    elapsed_seconds: float


@dataclass(frozen=True)
class _Unit:
    group_id: int
    protocol: str
    indices: tuple[int, ...]
    layout: str


def _utcnow_iso() -> str:
    import datetime

    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def default_campaign_id(
    scenario_id: str, scenario_hash: str, scale: str, seeds: Sequence[int], backend: str
) -> str:
    """Deterministic campaign id: scenario slug + digest of the full request."""
    import hashlib
    import json

    payload = json.dumps(
        [scenario_hash, scale, list(seeds), backend], separators=(",", ":")
    )
    return f"{scenario_id}-{hashlib.sha256(payload.encode()).hexdigest()[:8]}"


def _check_request(
    backend_name: str, workers: int | None, checkpoint_every: int
) -> None:
    """Reject worker and checkpoint settings before anything is written.

    ``start_campaign`` and ``resume_campaign`` both call this, so a bad
    value fails the same way on either entry point instead of being ignored
    or failing deep inside the partitioning.
    """
    if checkpoint_every < 1:
        raise CampaignError("checkpoint_every must be at least 1")
    if workers is None:
        return
    if workers <= 0:
        raise CampaignError("workers must be positive")
    if backend_name != "processes":
        raise CampaignError(
            "workers only apply to the processes backend; the campaign runs "
            f"on the {backend_name} backend"
        )


def _partition_units(
    plan: SweepPlan, backend: ExecutionBackend, checkpoint_every: int
) -> tuple[list[_Unit], list[str]]:
    """Cut the plan into checkpoint units; returns (units, spec hashes)."""
    specs = plan.specs
    hashes: list[str | None] = [spec.cache_key() for spec in specs]
    for index, spec_hash in enumerate(hashes):
        if spec_hash is None:
            raise CampaignError(
                f"spec {index} has no stable content hash (cache_key() is None); "
                "campaigns require fully declarative RunSpecs"
            )
    units: list[_Unit] = []
    for group in plan.groups:
        indices = list(group.spec_indices)
        # A group shares everything but the seed, so one layout covers it.
        layout = backend.result_layout(specs[indices[0]])
        # Scalar runs are independent and checkpoint in chunks; a lockstep
        # group is one batch, so it is one unit.
        size = checkpoint_every if layout == SCALAR_LAYOUT else len(indices)
        for start in range(0, len(indices), size):
            units.append(
                _Unit(
                    group_id=group.group_id,
                    protocol=group.protocol_name,
                    indices=tuple(indices[start : start + size]),
                    layout=layout,
                )
            )
    return units, hashes  # type: ignore[return-value]


def _execute(
    store: ResultsStore,
    plan: SweepPlan,
    campaign_id: str,
    *,
    backend: ExecutionBackend,
    scenario_hash: str | None,
    workers: int | None,
    checkpoint_every: int,
    fail_after_units: int | None,
) -> CampaignOutcome:
    backend_name = backend.name
    if backend_name == "processes":
        # A checkpoint unit is also one pool invocation, so a unit smaller
        # than the pool would cap concurrency at checkpoint_every and pay
        # pool startup per handful of runs.  Durability granularity is
        # traded up to the pool width — the natural floor, since a full
        # pool finishes ~workers runs per wave anyway.
        import os as _os

        checkpoint_every = max(checkpoint_every, workers or _os.cpu_count() or 1)
    tele = current_telemetry()
    # Partitioning hashes every spec (content-addressed identity), which
    # is real work on large plans — time it as part of the build phase.
    with tele.span(
        "build", kind="phase", backend=backend_name, op="partition-units"
    ):
        units, hashes = _partition_units(plan, backend, checkpoint_every)
    specs = plan.specs
    executed = 0
    skipped = 0
    total_elapsed = 0.0
    units_done = 0
    runs_done = 0
    total_runs = len(specs)
    for unit_index, unit in enumerate(units):
        unit_started_at = _utcnow_iso()
        started = time.perf_counter()
        with tele.span(
            "commit", kind="phase", backend=backend_name, op="pending-check"
        ):
            pending = [
                index
                for index in unit.indices
                if not store.has_run(hashes[index], specs[index].seed, unit.layout)
            ]
        if pending:
            # The backend and its engines emit their own build/simulate
            # (and, for lockstep batches, finalize) phase spans.
            results = backend.run([specs[index] for index in pending])
            with tele.span(
                "commit",
                kind="phase",
                backend=backend_name,
                op="put-run",
                unit=unit_index,
                runs=len(pending),
            ):
                for index, result in zip(pending, results):
                    store.put_run(
                        hashes[index],
                        specs[index].seed,
                        unit.layout,
                        result,
                        scenario_hash=scenario_hash,
                        source="campaign",
                    )
        elapsed = time.perf_counter() - started
        # The unit span is persisted in the store whether or not telemetry
        # is on — it is provenance (outside the fingerprint) and is what
        # `campaign status` derives per-unit wall-clock and ETA from.
        with tele.span(
            "commit", kind="phase", backend=backend_name, op="record-unit"
        ):
            store.record_campaign_unit(
                campaign_id,
                [
                    (
                        index,
                        unit.group_id,
                        unit.protocol,
                        hashes[index],
                        specs[index].seed,
                        unit.layout,
                    )
                    for index in unit.indices
                ],
                elapsed_seconds=elapsed,
                # A pure-skip unit (everything already stored — the resume
                # path) must not overwrite the original unit span with a
                # near-zero one: the persisted spans are what status/ETA
                # derive per-unit wall-clock from.
                unit_index=unit_index if pending else None,
                started_at=unit_started_at,
            )
        executed += len(pending)
        skipped += len(unit.indices) - len(pending)
        total_elapsed += elapsed
        units_done += 1
        runs_done += len(unit.indices)
        if tele.enabled:
            tele.span_record(
                "unit",
                elapsed,
                kind="unit",
                backend=backend_name,
                campaign=campaign_id,
                unit=unit_index,
                runs=len(unit.indices),
                executed=len(pending),
            )
            tele.progress(
                f"campaign {campaign_id}",
                runs_done,
                total_runs,
                units_done=units_done,
                units=len(units),
                # Lets the progress sink rate-limit on *executed* work: a
                # resumed campaign skips stored runs near-instantly, and a
                # rate derived from skipped+executed would project a
                # nonsense ETA for the real work that follows.
                executed=executed,
            )
        if fail_after_units is not None and units_done >= fail_after_units:
            if units_done < len(units):
                raise CampaignInterrupted(campaign_id, units_done)
    with tele.span("commit", kind="phase", backend=backend_name, op="finish"):
        store.finish_campaign(campaign_id)
    return CampaignOutcome(
        campaign_id=campaign_id,
        status="complete",
        total_runs=len(specs),
        executed_runs=executed,
        skipped_runs=skipped,
        elapsed_seconds=total_elapsed,
    )


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def start_campaign(
    store: ResultsStore,
    scenario,
    *,
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend_name: str = "serial",
    workers: int | None = None,
    campaign_id: str | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    fail_after_units: int | None = None,
    dynamics_window: int = 0,
) -> CampaignOutcome:
    """Create and execute a new campaign for ``scenario``.

    The scenario definition, resolved seed list, scale, and backend are
    recorded in the store so :func:`resume_campaign` can rebuild the exact
    same plan later — including from a different process after a kill.

    ``dynamics_window`` turns on windowed dynamics sampling for executed
    runs (trajectories are persisted next to the run artifacts).  It is an
    observability knob, not part of the campaign's identity: spec hashes
    and the store fingerprint are unchanged by it, and a resume may choose
    a different window (only runs actually executed record trajectories).
    """
    if backend_name not in BACKEND_NAMES:
        raise CampaignError(
            f"unknown campaign backend {backend_name!r}; "
            f"expected one of {BACKEND_NAMES}"
        )
    # Checked before the campaign row is created: a backend constructor
    # raising later would strand a 'running' campaign.
    _check_request(backend_name, workers, checkpoint_every)
    tele = current_telemetry()
    # Resolving the request and checking the store for it are timed with
    # the plan, so no set-up work falls outside the phase accounting.
    with tele.span("build", kind="phase", backend=backend_name, op="plan"):
        from repro.scenarios.runner import build_plan, scenario_seeds

        seed_list = scenario_seeds(scenario, scale, seeds)
        scenario_hash = scenario.content_hash()
        if campaign_id is None:
            campaign_id = default_campaign_id(
                scenario.scenario_id, scenario_hash, scale, seed_list, backend_name
            )
        existing = store.get_campaign(campaign_id)
        if existing is not None:
            raise CampaignError(
                f"campaign {campaign_id!r} already exists "
                f"(status {existing['status']}); use resume"
            )
        plan = build_plan(scenario, scale, seed_list)
    with tele.span(
        "commit", kind="phase", backend=backend_name, op="create-campaign"
    ):
        store.create_campaign(
            campaign_id,
            scenario_id=scenario.scenario_id,
            scenario_hash=scenario_hash,
            definition=scenario.to_dict(),
            scale=scale,
            seeds=seed_list,
            backend=backend_name,
            total_runs=len(plan),
        )
    with make_backend(
        backend_name, workers=workers, dynamics_window=dynamics_window
    ) as backend:
        return _execute(
            store,
            plan,
            campaign_id,
            backend=backend,
            scenario_hash=scenario_hash,
            workers=workers,
            checkpoint_every=checkpoint_every,
            fail_after_units=fail_after_units,
        )


def resume_campaign(
    store: ResultsStore,
    campaign_id: str,
    *,
    workers: int | None = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    fail_after_units: int | None = None,
    dynamics_window: int = 0,
) -> CampaignOutcome:
    """Complete an interrupted campaign (no-op when already complete).

    The plan is rebuilt deterministically from the stored scenario
    definition + seeds + scale; runs already in the store are skipped, so
    the finished store is bit-identical to an uninterrupted run's.
    """
    import json

    from repro.scenarios.runner import build_plan
    from repro.scenarios.spec import scenario_from_dict

    row = store.get_campaign(campaign_id)
    if row is None:
        known = ", ".join(c["campaign_id"] for c in store.list_campaigns()) or "(none)"
        raise CampaignError(
            f"unknown campaign {campaign_id!r}; known campaigns: {known}"
        )
    _check_request(row["backend"], workers, checkpoint_every)
    if row["status"] == "complete":
        return CampaignOutcome(
            campaign_id=campaign_id,
            status="complete",
            total_runs=row["total_runs"],
            executed_runs=0,
            skipped_runs=row["total_runs"],
            elapsed_seconds=0.0,
        )
    if not row["definition"]:
        raise CampaignError(
            f"campaign {campaign_id!r} has no stored scenario definition "
            "and cannot be resumed from the CLI"
        )
    scenario = scenario_from_dict(
        json.loads(row["definition"]), source=f"campaign:{campaign_id}"
    )
    if scenario.content_hash() != row["scenario_hash"]:
        raise CampaignError(
            f"campaign {campaign_id!r}: stored definition no longer matches its "
            "recorded content hash; refusing to resume against different science"
        )
    seeds = json.loads(row["seeds"])
    with current_telemetry().span(
        "build", kind="phase", backend=row["backend"], op="plan"
    ):
        plan = build_plan(scenario, row["scale"], seeds)
    if len(plan) != row["total_runs"]:
        raise CampaignError(
            f"campaign {campaign_id!r}: rebuilt plan has {len(plan)} runs but "
            f"{row['total_runs']} were recorded; code drift detected"
        )
    with make_backend(
        row["backend"], workers=workers, dynamics_window=dynamics_window
    ) as backend:
        return _execute(
            store,
            plan,
            campaign_id,
            backend=backend,
            scenario_hash=row["scenario_hash"],
            workers=workers,
            checkpoint_every=checkpoint_every,
            fail_after_units=fail_after_units,
        )


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def estimate_eta_seconds(
    runs_done: int, total_runs: int, elapsed_seconds: float
) -> float | None:
    """Remaining wall-clock estimate from per-run observed rate.

    ``None`` when there is nothing to estimate from (no completed runs
    yet) or nothing left to do.  The rate comes from the persisted unit
    spans' total elapsed, so it survives interruption: a resumed
    campaign's ETA reflects all work ever done on it.
    """
    if runs_done <= 0 or total_runs <= runs_done or elapsed_seconds <= 0:
        return None
    return (total_runs - runs_done) * (elapsed_seconds / runs_done)


def campaign_status_rows(store: ResultsStore) -> list[dict[str, Any]]:
    """One summary row per campaign: progress, backend, timing, ETA.

    ``units_done``/``slowest_unit_seconds`` come from the persisted
    per-unit spans (``campaign_units``); ``eta_seconds`` is ``None`` for
    campaigns that are complete or have no timing data yet;
    ``unit_imbalance`` is the max/mean unit wall-clock index
    (:func:`repro.observe.workers.unit_imbalance` — 1.0 is a perfectly
    level campaign, ``None`` below two timed units).
    """
    from repro.observe.workers import unit_imbalance

    rows = []
    for campaign in store.list_campaigns():
        campaign_id = campaign["campaign_id"]
        done = store.campaign_run_count(campaign_id)
        unit_rows = store.campaign_units(campaign_id)
        elapsed = round(campaign["elapsed_seconds"] or 0.0, 4)
        eta = (
            estimate_eta_seconds(done, campaign["total_runs"], elapsed)
            if campaign["status"] != "complete"
            else None
        )
        rows.append(
            {
                "campaign_id": campaign_id,
                "scenario_id": campaign["scenario_id"],
                "scenario_hash": campaign["scenario_hash"],
                "scale": campaign["scale"],
                "backend": campaign["backend"],
                "status": campaign["status"],
                "runs_done": done,
                "total_runs": campaign["total_runs"],
                "elapsed_seconds": elapsed,
                "units_done": len(unit_rows),
                "slowest_unit_seconds": (
                    round(max(row["elapsed_seconds"] for row in unit_rows), 4)
                    if unit_rows
                    else None
                ),
                "unit_imbalance": unit_imbalance(
                    [row["elapsed_seconds"] for row in unit_rows]
                ),
                "eta_seconds": round(eta, 4) if eta is not None else None,
                "created_at": campaign["created_at"],
            }
        )
    return rows


def campaign_report(store: ResultsStore, campaign_id: str) -> ExperimentReport:
    """Aggregate a stored campaign into a standard experiment report.

    Rows are computed from the registry's metric columns alone — no
    artifact is unpickled — which is the payoff of storing summaries as
    columns.  One row per replication group, replicate means per metric,
    mirroring :func:`repro.experiments.plan.aggregate_replicate_row`.
    """
    campaign = store.get_campaign(campaign_id)
    if campaign is None:
        raise CampaignError(f"unknown campaign {campaign_id!r}")
    memberships = store.campaign_run_rows(campaign_id)
    report = ExperimentReport(
        spec=ExperimentSpec(
            exp_id=campaign_id,
            title=f"Campaign {campaign_id} ({campaign['scenario_id']})",
            claim="stored replication campaign",
            bench_target=f"python -m repro campaign show {campaign_id}",
        )
    )
    by_group: dict[int, list[dict[str, Any]]] = {}
    unbacked = 0
    for membership in memberships:
        run = store.get_run(
            membership["spec_hash"], membership["seed"], membership["backend_layout"]
        )
        if run is None:
            unbacked += 1
            continue
        by_group.setdefault(membership["group_id"], []).append(
            {"protocol": membership["protocol"], **run.metrics}
        )
    # Report-row names for the count-style columns (matching the rows
    # `aggregate_replicate_row` produces); everything else keeps its
    # METRIC_COLUMNS name and is averaged over replicates.
    renames = {"num_arrivals": "arrivals", "num_delivered": "delivered"}
    for group_id in sorted(by_group):
        runs = by_group[group_id]
        count = len(runs)
        row: dict[str, Any] = {
            "protocol": runs[0]["protocol"],
            "scenario": campaign["scenario_id"],
            "replicates": count,
        }
        for metric in METRIC_COLUMNS:
            if metric == "drained":
                row["drained"] = all(run["drained"] for run in runs)
            elif metric == "num_slots":
                continue  # a horizon setting, not an outcome worth a column
            else:
                row[renames.get(metric, metric)] = (
                    sum(run[metric] for run in runs) / count
                )
        report.add_row(row)
    for row in report.rows:
        report.verdicts[f"{row['protocol']}_throughput"] = f"{row['throughput']:.3f}"
    done = len(memberships)
    report.notes.append(
        f"status={campaign['status']}: {done}/{campaign['total_runs']} runs recorded "
        f"on backend {campaign['backend']} at scale {campaign['scale']}"
    )
    unit_rows = store.campaign_units(campaign_id)
    if unit_rows:
        total_elapsed = campaign["elapsed_seconds"] or 0.0
        slowest = max(unit_rows, key=lambda row: row["elapsed_seconds"])
        mean_unit = total_elapsed / len(unit_rows) if unit_rows else 0.0
        report.notes.append(
            f"timing: {len(unit_rows)} unit(s) in {total_elapsed:.2f}s wall-clock "
            f"(mean {mean_unit:.2f}s/unit; slowest unit #{slowest['unit_index']} "
            f"[{slowest['protocol']}, {slowest['runs']} runs] "
            f"{slowest['elapsed_seconds']:.2f}s)"
        )
        if campaign["status"] != "complete":
            eta = estimate_eta_seconds(done, campaign["total_runs"], total_elapsed)
            if eta is not None:
                report.notes.append(f"eta: ~{eta:.1f}s of work remaining")
    if unbacked:
        # Aggregates above silently averaged over fewer replicates; say so
        # loudly — a registry row behind a recorded membership is gone,
        # which means the store has been damaged or over-pruned.
        report.notes.append(
            f"WARNING: {unbacked} recorded run(s) have no registry row; "
            "aggregates cover fewer replicates (store damaged or pruned?)"
        )
    report.notes.append(f"scenario content hash: {(campaign['scenario_hash'] or '')[:12]}")
    return report
