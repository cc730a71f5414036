"""The ``python -m repro`` command line.

Subcommands:

``list``
    Print the experiment table and the scenario catalog.  With ``--json``
    the listing is machine-readable (ids, titles, tags, content hashes,
    and each entry's vectorization coverage — spec/kernel-launch counts
    plus named fallback reasons), so CI and scripts can enumerate what is
    runnable and what vectorizes.

``run``
    Run experiments by id on a chosen execution backend and print their
    rendered reports::

        python -m repro run e3 --scale full --backend processes --workers 8 --out results/

    With ``--out``, each experiment also writes a JSON report
    (``<out>/<id>.json``) containing the rows, verdicts, backend description
    and wall-clock time, so sweeps can be archived and diffed.  Timing
    history lives in the results store (see ``perf`` below).

    ``--backend vector`` batches every vectorizable replication group
    through the lockstep numpy engine (compatible groups stacked into
    mega-batches) and runs the rest serially; the backend description in
    the report shows the vectorized/fallback split and the launch count.
    ``--explain`` prints the per-group vectorization table — which groups
    get a vector kernel, and the support-registry reason for each scalar
    fallback — without running anything.

``scenario``
    The scenario catalog and file format (see :mod:`repro.scenarios`)::

        python -m repro scenario list
        python -m repro scenario show onoff-jamming
        python -m repro scenario run onoff-jamming my-workload.toml --backend vector

    ``run`` accepts catalog names and/or ``.toml``/``.json`` scenario
    files, and takes the same backend/report options as ``run``.

``equivalence``
    Run the vector-vs-serial statistical-equivalence harness
    (:mod:`repro.analysis.equivalence`) outside pytest: by default on the
    vectorizable E1 batch core, or on a scenario's vectorizable groups
    with ``--scenario``.  Exits non-zero when any comparison fails.

``campaign``
    Durable, resumable replication campaigns over the results store
    (:mod:`repro.store` / :mod:`repro.campaigns`)::

        python -m repro campaign run onoff-jamming --backend vector --store runs/
        python -m repro campaign resume onoff-jamming-1a2b3c4d --store runs/
        python -m repro campaign status --store runs/ --json
        python -m repro campaign show onoff-jamming-1a2b3c4d --store runs/
        python -m repro campaign diff CAMPAIGN_A CAMPAIGN_B --store runs/ --trajectories

    ``run`` checkpoints progress per unit, so a killed campaign resumes
    with ``resume`` and converges to a store bit-identical to an
    uninterrupted run.  ``diff`` compares two campaigns metric-by-metric
    (Welch/KS) and exits non-zero on a statistical regression;
    ``--trajectories`` also compares the runs' paths window by window
    (Welch + Benjamini–Hochberg).

``telemetry``
    Observability tooling (:mod:`repro.telemetry`).  ``run``, ``scenario
    run``, ``campaign run`` and ``campaign resume`` accept ``--telemetry
    PATH`` (append structured JSONL events: spans, counters, named events)
    and ``--progress`` (live completion/rate/ETA on stderr); then::

        python -m repro telemetry summarize PATH [--json]

    aggregates a JSONL file into per-phase/per-backend wall-clock tables
    (count, total, mean, p50, p95, max), counter totals, event
    histograms, and a coverage figure (share of root wall-clock explained
    by phase spans).  ``--run ID`` (repeatable, prefix-matched) and
    ``--last`` restrict the summary to specific sessions of a shared
    file; a worker-utilization table (per-pid busy fractions, queue-wait
    distribution, imbalance index) is appended when the file carries
    process-pool spans.  The run commands also accept
    ``--sample-resources [SECONDS]`` (with ``--telemetry``) to stream
    ``/proc`` RSS/CPU/fd samples into the same file; those samples, and
    the pool workers' job-boundary ones, come back as a ``resources``
    table (peak RSS, last CPU seconds and open fds per pid and source),
    which appears only when the file has samples.  Telemetry is RNG-
    and result-inert: fingerprints with it on and off are bit-identical.

``perf``
    Store-backed performance history and drift detection
    (:mod:`repro.observe.perf`)::

        python -m repro perf record onoff-jamming --store runs/ --backend vector
        python -m repro perf history --store runs/
        python -m repro perf regress --store runs/

    ``record`` executes a scenario's plan once, timed, and appends a
    wall-clock sample to the store's ``perf_samples`` table (keyed by
    workload — the scenario at one scale and seed list — backend layout,
    and host fingerprint; excluded from the store fingerprint).  This is
    the repository's one performance history.  ``regress`` Welch-tests
    the latest window of each group against its rolling baseline and
    exits ``1`` on sustained drift, ``0`` otherwise (``2`` for usage
    errors).

``dynamics``
    Windowed simulation-dynamics trajectories (:mod:`repro.dynamics`).
    ``run``, ``scenario run``, ``campaign run`` and ``campaign resume``
    accept ``--dynamics [W]`` (sample throughput/backlog/contention/...
    every ``W`` slots into a compact per-run trajectory; stored runs
    persist it in the results store); then::

        python -m repro dynamics show --store runs/
        python -m repro dynamics show 1a2b3c --seed 7 --store runs/
        python -m repro dynamics export 1a2b3c --seed 7 --format csv

    ``show`` lists or sparkline-renders stored trajectories and ``export``
    emits JSON/CSV; ``campaign diff --trajectories`` is the trajectory
    regression gate.  Like telemetry, dynamics are RNG- and result-inert:
    store fingerprints with ``--dynamics`` on and off are bit-identical.

``cache``
    Operational tooling for the result cache / results store::

        python -m repro cache stats --cache-dir .sim-cache
        python -m repro cache prune --cache-dir .sim-cache --older-than-days 30

    ``prune`` drops cache-sourced entries by age and/or total size
    (campaign-recorded runs are never pruned) and sweeps orphaned
    artifacts.

Experiment ids are case-insensitive (``e3`` and ``E3`` both work).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import time
from typing import Iterable

from repro.exec import BACKEND_NAMES, make_backend
from repro.experiments.experiments import ALL_EXPERIMENTS
from repro.experiments.reporting import render_report, report_to_dict
from repro.experiments.spec import SCALES


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    """``--scale/--seeds/--backend/--workers``: what to run, and where.

    Shared by ``run``, ``scenario run``, ``campaign run`` and ``perf
    record``; :func:`_check_run_options` validates them before any store
    opens.
    """
    parser.add_argument("--scale", default="default", choices=SCALES)
    parser.add_argument(
        "--seeds",
        default=None,
        metavar="S1,S2,...",
        help="comma-separated replicate seeds (default: the scale's seed list)",
    )
    parser.add_argument(
        "--backend",
        default="serial",
        choices=BACKEND_NAMES,
        help="execution backend for the replicates",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --backend processes (default: cpu count)",
    )


def _check_run_options(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> list[int] | None:
    """Reject bad :func:`_add_run_options` values; return the seeds.

    Runs before any store or cache opens, so a usage error leaves nothing
    behind.
    """
    if args.workers is not None:
        if args.backend != "processes":
            parser.error("--workers only applies to --backend processes")
        if args.workers < 1:
            parser.error("--workers must be at least 1")
    return _parse_seeds(args.seeds, parser)


def _add_execution_options(parser: argparse.ArgumentParser) -> None:
    """Run, cache and report options shared by ``run`` and ``scenario run``."""
    _add_run_options(parser)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for the on-disk result cache (off when omitted)",
    )
    _add_dynamics_option(parser)
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write one JSON report per experiment/scenario into DIR",
    )
    _add_telemetry_options(parser)


def _add_dynamics_option(parser: argparse.ArgumentParser) -> None:
    """``--dynamics [W]`` shared by run/scenario run/campaign run|resume."""
    parser.add_argument(
        "--dynamics",
        nargs="?",
        const=-1,  # bare flag: use the library default window
        type=int,
        default=None,
        metavar="W",
        help=(
            "record a windowed dynamics trajectory per run, sampled every W "
            "slots (bare flag: default window); inspect with "
            "'python -m repro dynamics show'"
        ),
    )


def _dynamics_window(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Resolve ``--dynamics`` to a sampling window (0 = off)."""
    raw = getattr(args, "dynamics", None)
    if raw is None:
        return 0
    if raw == -1:
        from repro.dynamics import DEFAULT_WINDOW

        return DEFAULT_WINDOW
    if raw < 1:
        parser.error("--dynamics window must be a positive slot count")
    return raw


def _add_telemetry_options(parser: argparse.ArgumentParser) -> None:
    """Telemetry flags shared by ``run``/``scenario run``/``campaign``."""
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="PATH",
        help=(
            "append structured telemetry events (JSONL) to PATH; aggregate "
            "with 'python -m repro telemetry summarize PATH'"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render live completion/rate/ETA on stderr while running",
    )
    parser.add_argument(
        "--sample-resources",
        nargs="?",
        const=-1.0,  # bare flag: use the library default interval
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "sample parent-process RSS/CPU/fds every SECONDS into the "
            "--telemetry stream (bare flag: default interval); pool "
            "workers add job-boundary samples automatically"
        ),
    )


def _telemetry_session(args: argparse.Namespace):
    """Build the run's telemetry session from the CLI flags (or ``None``).

    Telemetry is RNG- and result-inert, so turning it on can never change
    what a command computes — only what it reports while computing it.
    """
    from repro.telemetry import JsonlSink, ProgressSink, TelemetrySession

    sinks = []
    if getattr(args, "telemetry", None):
        sinks.append(JsonlSink(args.telemetry))
    if getattr(args, "progress", False):
        sinks.append(ProgressSink())
    if not sinks:
        return None
    return TelemetrySession(sinks)


def _resource_sampler(args: argparse.Namespace, parser: argparse.ArgumentParser, session):
    """Resolve ``--sample-resources`` to a running-or-null sampler CM.

    Sampling rides the telemetry stream, so asking for it without
    ``--telemetry`` is a loud error rather than silently dropped samples.
    ``session`` is the *activated* session the wrapped command runs under.
    """
    from repro.observe import DEFAULT_INTERVAL, NULL_SAMPLER, ResourceSampler

    raw = getattr(args, "sample_resources", None)
    if raw is None:
        return NULL_SAMPLER
    if not getattr(args, "telemetry", None):
        parser.error(
            "--sample-resources requires --telemetry PATH "
            "(samples are emitted as telemetry events)"
        )
    interval = DEFAULT_INTERVAL if raw == -1.0 else raw
    if interval <= 0:
        parser.error("--sample-resources interval must be positive seconds")
    return ResourceSampler(session, interval=interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the paper-claim experiments (E1-E9, A1) and scenarios.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list available experiments and scenarios"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable listing of experiment and scenario ids",
    )

    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        metavar="ID",
        help="experiment ids to run (e.g. e1 e3; case-insensitive)",
    )
    run_parser.add_argument(
        "--explain",
        action="store_true",
        help=(
            "print each experiment's per-group vectorization table (vector "
            "kernel vs scalar fallback, with the support-registry reason) "
            "instead of running anything"
        ),
    )
    _add_execution_options(run_parser)

    scenario_parser = subparsers.add_parser(
        "scenario", help="inspect and run declarative scenarios"
    )
    scenario_sub = scenario_parser.add_subparsers(dest="scenario_command", required=True)
    scenario_list = scenario_sub.add_parser("list", help="list the scenario catalog")
    scenario_list.add_argument("--json", action="store_true")
    scenario_show = scenario_sub.add_parser(
        "show", help="print one scenario definition as JSON"
    )
    scenario_show.add_argument(
        "scenario", metavar="NAME_OR_FILE", help="catalog name or .toml/.json path"
    )
    scenario_run = scenario_sub.add_parser(
        "run", help="run scenarios by catalog name or file path"
    )
    scenario_run.add_argument(
        "scenarios",
        nargs="+",
        metavar="NAME_OR_FILE",
        help="catalog names and/or .toml/.json scenario files",
    )
    _add_execution_options(scenario_run)

    equivalence_parser = subparsers.add_parser(
        "equivalence",
        help="check the vector-vs-serial statistical-equivalence contract",
    )
    equivalence_parser.add_argument(
        "--scenario",
        default=None,
        metavar="NAME_OR_FILE",
        help=(
            "check the vectorizable groups of this scenario instead of the "
            "default E1 batch core"
        ),
    )
    equivalence_parser.add_argument(
        "--scale",
        default="default",
        choices=SCALES,
        help="scale for --scenario runs",
    )
    equivalence_parser.add_argument(
        "--replications",
        type=int,
        default=16,
        metavar="N",
        help="replications per configuration (default: 16)",
    )
    equivalence_parser.add_argument(
        "--batch-sizes",
        default="50,100",
        metavar="N,N",
        help="batch sizes for the default E1-core check (default: 50,100)",
    )
    equivalence_parser.add_argument(
        "--protocols",
        default="core",
        choices=("core", "sensing", "all"),
        help=(
            "which protocol tier the default E1-core check sweeps: the "
            "send-only 'core' (BEB/polynomial/fixed-probability), the "
            "'sensing' tier (low-sensing/sawtooth/full-sensing MW), or "
            "'all' (default: core)"
        ),
    )

    campaign_parser = subparsers.add_parser(
        "campaign", help="durable, resumable replication campaigns"
    )
    campaign_sub = campaign_parser.add_subparsers(
        dest="campaign_command", required=True
    )

    def _add_store_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--store",
            default=".repro-store",
            metavar="DIR",
            help="results-store directory (default: .repro-store)",
        )

    campaign_run = campaign_sub.add_parser(
        "run", help="start a new campaign for a scenario"
    )
    campaign_run.add_argument(
        "scenario", metavar="NAME_OR_FILE", help="catalog name or .toml/.json path"
    )
    _add_store_option(campaign_run)
    _add_run_options(campaign_run)
    campaign_run.add_argument(
        "--id",
        dest="campaign_id",
        default=None,
        help="campaign id (default: derived from scenario hash + options)",
    )
    campaign_run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="N",
        help="scalar runs per checkpoint transaction (default: 8)",
    )
    _add_dynamics_option(campaign_run)
    _add_telemetry_options(campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="complete an interrupted campaign"
    )
    campaign_resume.add_argument("campaign_id", metavar="CAMPAIGN_ID")
    _add_store_option(campaign_resume)
    campaign_resume.add_argument("--workers", type=int, default=None)
    campaign_resume.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N"
    )
    _add_dynamics_option(campaign_resume)
    _add_telemetry_options(campaign_resume)

    campaign_status = campaign_sub.add_parser(
        "status", help="list campaigns and their progress"
    )
    _add_store_option(campaign_status)
    campaign_status.add_argument("--json", action="store_true")

    campaign_show = campaign_sub.add_parser(
        "show", help="render one stored campaign as a report"
    )
    campaign_show.add_argument("campaign_id", metavar="CAMPAIGN_ID")
    _add_store_option(campaign_show)
    campaign_show.add_argument("--json", action="store_true")

    campaign_diff = campaign_sub.add_parser(
        "diff", help="compare two campaigns; non-zero exit on regression"
    )
    campaign_diff.add_argument("left", metavar="CAMPAIGN_A")
    campaign_diff.add_argument("right", metavar="CAMPAIGN_B")
    _add_store_option(campaign_diff)
    campaign_diff.add_argument("--alpha", type=float, default=0.001)
    campaign_diff.add_argument("--mean-alpha", type=float, default=0.002)
    campaign_diff.add_argument(
        "--trajectories",
        action="store_true",
        help=(
            "additionally compare the runs' dynamics trajectories window by "
            "window (catches mid-run regressions whose end-of-run aggregates "
            "cancel out)"
        ),
    )
    campaign_diff.add_argument(
        "--trajectory-window",
        type=int,
        default=None,
        metavar="W",
        help="slots per comparison window (default: derived from run length)",
    )
    campaign_diff.add_argument(
        "--trajectory-alpha",
        type=float,
        default=0.01,
        help="FDR level over the Welch-tested windows (default: 0.01)",
    )

    telemetry_parser = subparsers.add_parser(
        "telemetry", help="aggregate telemetry JSONL files"
    )
    telemetry_sub = telemetry_parser.add_subparsers(
        dest="telemetry_command", required=True
    )
    telemetry_summarize = telemetry_sub.add_parser(
        "summarize",
        help=(
            "per-phase/per-backend wall-clock breakdown (plus counters, "
            "events, and coverage) of a --telemetry JSONL file"
        ),
    )
    telemetry_summarize.add_argument(
        "path", metavar="PATH", help="JSONL file written by --telemetry"
    )
    telemetry_summarize.add_argument(
        "--run",
        action="append",
        default=None,
        metavar="ID",
        help=(
            "restrict to one session by run-id prefix (repeatable; "
            "session ids appear in session_start events)"
        ),
    )
    telemetry_summarize.add_argument(
        "--last",
        action="store_true",
        help="restrict to the file's most recent session",
    )
    telemetry_summarize.add_argument("--json", action="store_true")

    dynamics_parser = subparsers.add_parser(
        "dynamics", help="inspect stored simulation-dynamics trajectories"
    )
    dynamics_sub = dynamics_parser.add_subparsers(
        dest="dynamics_command", required=True
    )
    dynamics_show = dynamics_sub.add_parser(
        "show",
        help=(
            "list stored trajectories, or render one (spec prefix + --seed) "
            "as per-metric sparklines"
        ),
    )
    dynamics_show.add_argument(
        "spec",
        metavar="SPEC_PREFIX",
        nargs="?",
        default=None,
        help="spec-hash prefix selecting one run's trajectory",
    )
    _add_store_option(dynamics_show)
    dynamics_show.add_argument(
        "--seed", type=int, default=None, help="replicate seed to select"
    )
    dynamics_show.add_argument("--json", action="store_true")
    dynamics_export = dynamics_sub.add_parser(
        "export", help="export one trajectory as JSON or CSV"
    )
    dynamics_export.add_argument(
        "spec", metavar="SPEC_PREFIX", help="spec-hash prefix selecting the run"
    )
    _add_store_option(dynamics_export)
    dynamics_export.add_argument("--seed", type=int, default=None)
    dynamics_export.add_argument(
        "--format",
        dest="export_format",
        default="json",
        choices=("json", "csv"),
        help="export format (default: json)",
    )
    dynamics_export.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write to PATH instead of stdout",
    )

    perf_parser = subparsers.add_parser(
        "perf",
        help=(
            "store-backed wall-clock history and drift detection "
            "(record | history | regress)"
        ),
    )
    perf_sub = perf_parser.add_subparsers(dest="perf_command", required=True)
    perf_record = perf_sub.add_parser(
        "record",
        help=(
            "execute a scenario's plan once, timed, and append a "
            "wall-clock sample to the store's perf history"
        ),
    )
    perf_record.add_argument(
        "scenario", metavar="SCENARIO", help="catalog name or scenario file"
    )
    _add_store_option(perf_record)
    _add_run_options(perf_record)
    perf_record.add_argument(
        "--label", default=None, help="history label (default: scenario@scale)"
    )
    perf_record.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="record N samples back-to-back (default: 1)",
    )
    perf_record.add_argument("--json", action="store_true")
    perf_history = perf_sub.add_parser(
        "history", help="list recorded perf samples, oldest first"
    )
    _add_store_option(perf_history)
    perf_history.add_argument(
        "--spec", default=None, metavar="PREFIX", help="workload-hash prefix filter"
    )
    perf_history.add_argument("--json", action="store_true")
    perf_regress = perf_sub.add_parser(
        "regress",
        help=(
            "Welch-test the latest samples of each (workload, layout, host) "
            "group against its rolling baseline; exit 1 on sustained drift"
        ),
    )
    _add_store_option(perf_regress)
    perf_regress.add_argument("--spec", default=None, metavar="PREFIX")
    perf_regress.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="latest samples under test (default: 2)",
    )
    perf_regress.add_argument(
        "--baseline",
        type=int,
        default=None,
        metavar="N",
        help="rolling baseline size (default: 8)",
    )
    perf_regress.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="Welch significance level (default: 0.05)",
    )
    perf_regress.add_argument(
        "--factor",
        type=float,
        default=None,
        help="material-slowdown ratio gate (default: 1.2)",
    )
    perf_regress.add_argument("--json", action="store_true")

    cache_parser = subparsers.add_parser(
        "cache", help="inspect and prune the on-disk result cache"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser("stats", help="entry counts and sizes")
    cache_stats.add_argument(
        "--cache-dir", required=True, metavar="DIR", help="cache/store directory"
    )
    cache_stats.add_argument("--json", action="store_true")
    cache_prune = cache_sub.add_parser(
        "prune", help="drop cache entries by age and/or total size"
    )
    cache_prune.add_argument("--cache-dir", required=True, metavar="DIR")
    cache_prune.add_argument(
        "--older-than-days",
        type=float,
        default=None,
        metavar="DAYS",
        help="drop cache entries older than DAYS",
    )
    cache_prune.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="drop oldest cache entries until artifacts fit in BYTES",
    )
    cache_prune.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be removed without touching anything",
    )
    return parser


def _normalise_ids(raw_ids: Iterable[str], parser: argparse.ArgumentParser) -> list[str]:
    ids = []
    for raw in raw_ids:
        exp_id = raw.upper()
        if exp_id not in ALL_EXPERIMENTS:
            parser.error(
                f"unknown experiment id {raw!r}; choose from "
                f"{', '.join(sorted(ALL_EXPERIMENTS))}"
            )
        ids.append(exp_id)
    return ids


def _parse_seeds(raw: str | None, parser: argparse.ArgumentParser) -> list[int] | None:
    if raw is None:
        return None
    try:
        seeds = [int(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers, got {raw!r}")
    if not seeds:
        parser.error("--seeds must name at least one seed")
    return seeds


def _parse_positive_ints(
    raw: str, parser: argparse.ArgumentParser, option: str
) -> list[int]:
    try:
        values = [int(token) for token in raw.split(",") if token.strip()]
    except ValueError:
        parser.error(f"{option} must be comma-separated integers, got {raw!r}")
    if not values or any(value <= 0 for value in values):
        parser.error(f"{option} must name at least one positive integer, got {raw!r}")
    return values


def _backend_builder(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """A zero-argument backend factory, validated before anything runs.

    ``--dynamics`` wraps the backend in a :class:`~repro.exec.DynamicsBackend`,
    so every run records a windowed dynamics trajectory without the plan
    knowing about it.
    """
    if args.cache_dir is not None:
        # Open the cache's store up front: one this code cannot use is a
        # usage error naming it, not a traceback once runs are under way.
        _open_store(args.cache_dir, parser, create=True).close()

    def build_backend():
        try:
            return make_backend(
                args.backend,
                workers=args.workers,
                cache_dir=args.cache_dir,
                dynamics_window=_dynamics_window(args, parser),
            )
        except ValueError as exc:
            parser.error(str(exc))

    build_backend()  # validate the options before running anything
    return build_backend


def _fallback_histogram(plan, summary) -> dict[str, int]:
    """Aggregate fallback reasons into a reason -> spec-count histogram.

    Identical reasons repeat per group on large plans; the histogram
    surfaces "how much falls back, and why" at a glance.
    """
    histogram: dict[str, int] = {}
    for group_id, reason in summary["fallback_groups"].items():
        histogram[reason] = histogram.get(reason, 0) + len(
            plan.groups[group_id].spec_indices
        )
    return dict(sorted(histogram.items(), key=lambda item: (-item[1], item[0])))


def _vectorization_payload(plan) -> dict[str, object]:
    """JSON-friendly vectorization summary of one sweep plan."""
    summary = plan.vector_summary()
    return {
        "total_specs": summary["total_specs"],
        "vectorizable_specs": summary["vectorizable_specs"],
        "vector_groups": summary["vector_groups"],
        "mega_batches": summary["mega_batches"],
        "fallbacks": [
            {
                "group": group_id,
                "protocol": plan.groups[group_id].protocol_name,
                "reason": reason,
            }
            for group_id, reason in sorted(summary["fallback_groups"].items())
        ],
        "fallback_histogram": _fallback_histogram(plan, summary),
    }


def _print_vectorization_table(label: str, plan, scale: str) -> None:
    """Render one plan's per-group kernel-vs-fallback table."""
    summary = plan.vector_summary()
    print(
        f"[{label}] scale={scale}: "
        f"{summary['vectorizable_specs']}/{summary['total_specs']} specs "
        f"vectorize; {summary['vector_groups']} lockstep group(s) -> "
        f"{summary['mega_batches']} mega-batch launch(es)"
    )
    fallback = summary["fallback_groups"]
    rows = [("group", "protocol", "configuration", "reps", "status")]
    for group in plan.groups:
        columns = ", ".join(f"{key}={value}" for key, value in group.columns)
        status = (
            "vector kernel"
            if group.group_id not in fallback
            else f"fallback: {fallback[group.group_id]}"
        )
        rows.append(
            (
                str(group.group_id),
                group.protocol_name,
                columns or "-",
                str(len(group.seeds)),
                status,
            )
        )
    widths = [
        max(len(row[column]) for row in rows) for column in range(4)
    ]
    for row in rows:
        print(
            "  "
            + "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            + "  "
            + row[4]
        )
    histogram = _fallback_histogram(plan, summary)
    if histogram:
        print("  fallback reasons (spec counts):")
        for reason, count in histogram.items():
            print(f"    {count:>4}  {reason}")
    print()


def _experiment_rows(*, vectorization: bool = False) -> list[dict[str, object]]:
    from repro.experiments import experiments as exp_module
    from repro.experiments.experiments import EXPERIMENT_PLANS

    rows: list[dict[str, object]] = []
    for exp_id in sorted(ALL_EXPERIMENTS):
        spec = getattr(exp_module, f"{exp_id}_SPEC")
        row: dict[str, object] = {
            "id": exp_id, "title": spec.title, "bench_target": spec.bench_target
        }
        if vectorization:
            row["vectorization"] = _vectorization_payload(
                EXPERIMENT_PLANS[exp_id]()
            )
        rows.append(row)
    return rows


def _scenario_rows(*, vectorization: bool = False) -> list[dict[str, object]]:
    from repro.scenarios.catalog import builtin_scenarios

    rows = []
    for scenario_id in sorted(builtin_scenarios()):
        scenario = builtin_scenarios()[scenario_id]
        row: dict[str, object] = {
            "id": scenario.scenario_id,
            "title": scenario.title,
            "protocols": list(scenario.protocols),
            "tags": list(scenario.tags),
            "max_slots": scenario.max_slots,
            "replications": scenario.replications,
            "content_hash": scenario.content_hash(),
        }
        if vectorization:
            from repro.scenarios.runner import build_plan

            row["vectorization"] = _vectorization_payload(build_plan(scenario))
        rows.append(row)
    return rows


def _print_scenario_table(scenarios: list[dict[str, object]]) -> None:
    width = max(len(row["id"]) for row in scenarios)
    for row in scenarios:
        tags = f" [{', '.join(row['tags'])}]" if row["tags"] else ""
        print(f"{row['id']:<{width}}  {row['title']}{tags}")


def _command_list(args: argparse.Namespace) -> int:
    # The machine-readable listing carries each entry's vectorization
    # coverage (kernel counts + named fallback reasons); the plain table
    # skips the probe to stay instant.
    experiments = _experiment_rows(vectorization=args.json)
    scenarios = _scenario_rows(vectorization=args.json)
    if args.json:
        print(
            json.dumps(
                {"experiments": experiments, "scenarios": scenarios}, indent=2
            )
        )
        return 0
    width = max(len(row["id"]) for row in experiments)
    for row in experiments:
        print(f"{row['id']:<{width}}  {row['title']}  [{row['bench_target']}]")
    print()
    print("Scenarios (python -m repro scenario run <id>):")
    _print_scenario_table(scenarios)
    return 0


def _prepare_out_dir(
    raw: str | None, parser: argparse.ArgumentParser
) -> pathlib.Path | None:
    """Create ``--out`` up front so a bad path fails before anything runs."""
    if raw is None:
        return None
    out_dir = pathlib.Path(raw)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        parser.error(f"cannot create --out directory {raw!r}: {exc}")
    return out_dir


def _write_report_json(
    out_dir: pathlib.Path, name: str, payload: dict, label: str
) -> None:
    path = out_dir / f"{name}.json"
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8"
    )
    print(f"[{label}] wrote {path}")


def _command_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    ids = _normalise_ids(args.experiments, parser)
    seeds = _check_run_options(args, parser)
    if args.explain:
        from repro.experiments.experiments import EXPERIMENT_PLANS

        for exp_id in ids:
            plan = EXPERIMENT_PLANS[exp_id](scale=args.scale, seeds=seeds)
            _print_vectorization_table(exp_id, plan, args.scale)
        return 0
    build_backend = _backend_builder(args, parser)
    out_dir = _prepare_out_dir(args.out, parser)
    from repro.telemetry import activated

    with activated(_telemetry_session(args)) as tele:
        with _resource_sampler(args, parser, tele):
            return _run_experiments(args, ids, seeds, build_backend, out_dir, tele)


def _run_experiments(args, ids, seeds, build_backend, out_dir, tele) -> int:
    for exp_id in ids:
        # A fresh backend per experiment keeps the counters it reports
        # (cache hits/misses, vectorized/fallback splits) attributed to
        # this experiment alone; the on-disk cache still persists across
        # experiments because it is keyed by directory, not by instance.
        backend = build_backend()
        try:
            started = time.perf_counter()
            with tele.span(
                "sweep", kind="root", backend=args.backend, experiment=exp_id
            ):
                report = ALL_EXPERIMENTS[exp_id](
                    scale=args.scale, seeds=seeds, backend=backend
                )
            elapsed = time.perf_counter() - started
        finally:
            backend.close()
        print(render_report(report))
        print(f"\n[{exp_id}] {elapsed:.2f}s on backend {backend.describe()}\n")
        if out_dir is not None:
            from repro.experiments.experiments import _seeds

            payload = report_to_dict(report)
            payload["scale"] = args.scale
            # Record the seeds actually used, including the scale's default
            # seed list, so archived reports are self-describing.
            payload["seeds"] = list(_seeds(args.scale, seeds))
            payload["backend"] = backend.describe()
            payload["elapsed_seconds"] = round(elapsed, 4)
            _write_report_json(out_dir, exp_id.lower(), payload, exp_id)
    return 0


def _warn_on_majority_fallback(scenario, scale: str, seeds) -> None:
    """One-line warning when a vector run is mostly serial in disguise."""
    from repro.scenarios.runner import build_plan

    plan = build_plan(scenario, scale, seeds)
    summary = plan.vector_summary()
    total = summary["total_specs"]
    fallback_specs = total - summary["vectorizable_specs"]
    if total and fallback_specs * 2 > total:
        histogram = _fallback_histogram(plan, summary)
        top_reason = next(iter(histogram))
        print(
            f"[{scenario.scenario_id}] warning: {fallback_specs}/{total} jobs "
            f"fall back to the serial engine (top reason: {top_reason})"
        )


def _command_scenario(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.scenarios.spec import ScenarioError, resolve_scenario

    if args.scenario_command == "list":
        scenarios = _scenario_rows()
        if args.json:
            print(json.dumps({"scenarios": scenarios}, indent=2))
            return 0
        _print_scenario_table(scenarios)
        return 0

    if args.scenario_command == "show":
        try:
            scenario = resolve_scenario(args.scenario)
        except ScenarioError as exc:
            parser.error(str(exc))
        from repro.scenarios.runner import build_plan

        payload = scenario.to_dict()
        payload["content_hash"] = scenario.content_hash()
        plan = build_plan(scenario)
        summary = plan.vector_summary()
        payload["vector_support"] = {
            group.protocol_name: summary["fallback_groups"].get(
                group.group_id, "vectorizable"
            )
            for group in plan.groups
        }
        print(json.dumps(payload, indent=2))
        return 0

    # scenario run
    seeds = _check_run_options(args, parser)
    build_backend = _backend_builder(args, parser)
    try:
        scenarios = [resolve_scenario(name) for name in args.scenarios]
    except ScenarioError as exc:
        parser.error(str(exc))
    seen_ids: dict[str, str] = {}
    for argument, scenario in zip(args.scenarios, scenarios):
        previous = seen_ids.setdefault(scenario.scenario_id, str(argument))
        if previous != str(argument):
            # Reports are keyed by scenario id, so two definitions sharing
            # one id would silently overwrite each other.
            parser.error(
                f"scenario id {scenario.scenario_id!r} requested twice "
                f"(from {previous!r} and {argument!r})"
            )
    out_dir = _prepare_out_dir(args.out, parser)
    from repro.telemetry import activated

    with activated(_telemetry_session(args)) as tele:
        with _resource_sampler(args, parser, tele):
            return _run_scenarios(args, scenarios, seeds, build_backend, out_dir, tele)


def _run_scenarios(args, scenarios, seeds, build_backend, out_dir, tele) -> int:
    from repro.scenarios.runner import run_scenario, scenario_max_slots, scenario_seeds

    for scenario in scenarios:
        if args.backend == "vector":
            _warn_on_majority_fallback(scenario, args.scale, seeds)
        backend = build_backend()
        try:
            started = time.perf_counter()
            with tele.span(
                "scenario",
                kind="root",
                backend=args.backend,
                scenario=scenario.scenario_id,
            ):
                report = run_scenario(
                    scenario, scale=args.scale, seeds=seeds, backend=backend
                )
            elapsed = time.perf_counter() - started
        finally:
            backend.close()
        label = scenario.scenario_id
        print(render_report(report))
        print(f"\n[{label}] {elapsed:.2f}s on backend {backend.describe()}\n")
        if out_dir is not None:
            payload = report_to_dict(report)
            payload["scenario"] = scenario.to_dict()
            payload["content_hash"] = scenario.content_hash()
            payload["scale"] = args.scale
            payload["seeds"] = list(scenario_seeds(scenario, args.scale, seeds))
            payload["max_slots"] = scenario_max_slots(scenario, args.scale)
            payload["backend"] = backend.describe()
            payload["elapsed_seconds"] = round(elapsed, 4)
            _write_report_json(out_dir, f"scenario-{label}", payload, label)
    return 0


def _command_equivalence(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.analysis.equivalence import verify_plan_equivalence

    if args.replications < 1:
        parser.error("--replications must be at least 1")
    if args.scenario is not None:
        from repro.scenarios.runner import build_plan
        from repro.scenarios.spec import ScenarioError, resolve_scenario

        try:
            scenario = resolve_scenario(args.scenario)
        except ScenarioError as exc:
            parser.error(str(exc))
        seeds = [scenario.base_seed + index for index in range(args.replications)]
        plan = build_plan(scenario, scale=args.scale, seeds=seeds)
        labels = {group.group_id: scenario.scenario_id for group in plan.groups}
    else:
        from repro.adversary.arrivals import BatchArrivals
        from repro.adversary.composite import CompositeAdversary
        from repro.core.low_sensing import LowSensingBackoff
        from repro.experiments.plan import SweepPlan, factory
        from repro.protocols.binary_exponential import BinaryExponentialBackoff
        from repro.protocols.fixed_probability import FixedProbabilityProtocol
        from repro.protocols.mw_full_sensing import FullSensingMultiplicativeWeights
        from repro.protocols.polynomial_backoff import PolynomialBackoff
        from repro.protocols.sawtooth import SawtoothBackoff

        batch_sizes = _parse_positive_ints(args.batch_sizes, parser, "--batch-sizes")
        seeds = range(1, args.replications + 1)
        sensing_protocols = (
            LowSensingBackoff(),
            SawtoothBackoff(),
            FullSensingMultiplicativeWeights(),
        )
        # The E1 batch core as a plan: one group per (batch size, protocol).
        plan = SweepPlan()
        labels = {}
        for n in batch_sizes:
            adversary = factory(CompositeAdversary, factory(BatchArrivals, n))
            core_protocols = (
                BinaryExponentialBackoff(),
                PolynomialBackoff(),
                FixedProbabilityProtocol.tuned_for(n),
            )
            if args.protocols == "core":
                protocols = core_protocols
            elif args.protocols == "sensing":
                protocols = sensing_protocols
            else:
                protocols = core_protocols + sensing_protocols
            for protocol in protocols:
                labels[plan.add_group(protocol, adversary, seeds)] = f"n={n}"
    reports = verify_plan_equivalence(plan)
    if not reports:
        parser.error(
            f"scenario {args.scenario!r} has no vectorizable group; "
            "nothing to compare"
        )
    failures = 0
    for group_id, report in sorted(reports.items()):
        protocol = plan.groups[group_id].protocol_name
        print(f"-- {labels[group_id]} [{protocol}] x{args.replications}")
        print(report.render())
        failures += 0 if report.passed else 1
    if failures:
        print(f"\nequivalence: {failures} configuration(s) FAILED")
        return 1
    print("\nequivalence: all configurations passed")
    return 0


def _open_store(raw: str, parser: argparse.ArgumentParser, *, create: bool = False):
    """Open the results store at ``raw``.

    Only the writers (``campaign run``, ``perf record`` and a
    ``--cache-dir`` sweep) may create a store (``create=True``); every
    read-side command requires one to exist already, so a mistyped
    ``--store``/``--cache-dir`` is a loud error instead of a silently
    created empty store reporting zero of everything.
    """
    import sqlite3

    from repro.store import ResultsStore, StoreError

    if not create and not (pathlib.Path(raw) / "store.db").exists():
        parser.error(
            f"no results store at {raw!r} (expected {raw}/store.db; "
            "'campaign run' or a --cache-dir sweep creates one)"
        )
    try:
        return ResultsStore(raw)
    except (OSError, sqlite3.Error, StoreError) as exc:
        parser.error(f"cannot open results store at {raw!r}: {exc}")


def _print_outcome(outcome) -> None:
    print(
        f"[{outcome.campaign_id}] {outcome.status}: "
        f"{outcome.executed_runs} executed, {outcome.skipped_runs} skipped "
        f"of {outcome.total_runs} runs in {outcome.elapsed_seconds:.2f}s"
    )


def _command_campaign(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.campaigns import (
        CampaignError,
        campaign_report,
        campaign_status_rows,
        diff_campaigns,
        resume_campaign,
        start_campaign,
    )
    from repro.campaigns.runner import DEFAULT_CHECKPOINT_EVERY

    # Validate everything that can fail cheaply BEFORE the store opens:
    # `campaign run` creates the store directory, and a typo'd scenario
    # name must not leave an empty store behind.
    if args.campaign_command == "run":
        from repro.scenarios.spec import ScenarioError, resolve_scenario

        try:
            scenario = resolve_scenario(args.scenario)
        except ScenarioError as exc:
            parser.error(str(exc))
        seeds = _check_run_options(args, parser)
    if args.campaign_command in ("run", "resume"):
        checkpoint = (
            DEFAULT_CHECKPOINT_EVERY
            if args.checkpoint_every is None
            else args.checkpoint_every
        )
        if checkpoint < 1:
            parser.error("--checkpoint-every must be at least 1")
    from repro.telemetry import activated

    with _open_store(
        args.store, parser, create=args.campaign_command == "run"
    ) as store:
        try:
            if args.campaign_command == "run":
                with activated(_telemetry_session(args)) as tele:
                    with _resource_sampler(args, parser, tele), tele.span(
                        "campaign",
                        kind="root",
                        backend=args.backend,
                        scenario=scenario.scenario_id,
                    ):
                        outcome = start_campaign(
                            store,
                            scenario,
                            scale=args.scale,
                            seeds=seeds,
                            backend_name=args.backend,
                            workers=args.workers,
                            campaign_id=args.campaign_id,
                            checkpoint_every=checkpoint,
                            dynamics_window=_dynamics_window(args, parser),
                        )
                _print_outcome(outcome)
                return 0

            if args.campaign_command == "resume":
                with activated(_telemetry_session(args)) as tele:
                    with _resource_sampler(args, parser, tele), tele.span(
                        "campaign",
                        kind="root",
                        campaign=args.campaign_id,
                        op="resume",
                    ):
                        outcome = resume_campaign(
                            store,
                            args.campaign_id,
                            workers=args.workers,
                            checkpoint_every=checkpoint,
                            dynamics_window=_dynamics_window(args, parser),
                        )
                _print_outcome(outcome)
                return 0

            if args.campaign_command == "status":
                rows = campaign_status_rows(store)
                if args.json:
                    print(
                        json.dumps(
                            {
                                "campaigns": rows,
                                "store_fingerprint": store.fingerprint(),
                            },
                            indent=2,
                        )
                    )
                    return 0
                if not rows:
                    print("(no campaigns)")
                    return 0
                width = max(len(row["campaign_id"]) for row in rows)
                for row in rows:
                    timing = f"{row['elapsed_seconds']:.2f}s"
                    if row["units_done"]:
                        timing += (
                            f" over {row['units_done']} unit(s), "
                            f"slowest {row['slowest_unit_seconds']:.2f}s"
                        )
                        if row["unit_imbalance"] is not None:
                            timing += f", imbalance {row['unit_imbalance']:.2f}x"
                    if row["eta_seconds"] is not None:
                        timing += f", eta ~{row['eta_seconds']:.1f}s"
                    print(
                        f"{row['campaign_id']:<{width}}  {row['status']:<9} "
                        f"{row['runs_done']}/{row['total_runs']} runs  "
                        f"backend={row['backend']} scale={row['scale']} "
                        f"{timing}"
                    )
                return 0

            if args.campaign_command == "show":
                report = campaign_report(store, args.campaign_id)
                if args.json:
                    payload = report_to_dict(report)
                    payload["campaign"] = store.get_campaign(args.campaign_id)
                    payload["store_fingerprint"] = store.fingerprint()
                    print(json.dumps(payload, indent=2))
                    return 0
                print(render_report(report))
                return 0

            # campaign diff
            diff = diff_campaigns(
                store,
                args.left,
                right_id=args.right,
                alpha=args.alpha,
                mean_alpha=args.mean_alpha,
                trajectories=args.trajectories,
                trajectory_window=args.trajectory_window,
                trajectory_alpha=args.trajectory_alpha,
            )
            print(diff.render())
            return 0 if diff.passed else 1
        except CampaignError as exc:
            parser.error(str(exc))
    raise AssertionError("unreachable")  # pragma: no cover


def _command_telemetry(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> int:
    from repro.telemetry import (
        filter_events,
        read_events,
        render_summary,
        summarize_events,
    )

    path = pathlib.Path(args.path)
    if not path.is_file():
        parser.error(
            f"no telemetry file at {args.path!r} "
            "(produce one with --telemetry PATH on run/scenario run/campaign run)"
        )
    events = read_events(path)
    if not events:
        parser.error(f"telemetry file {args.path!r} contains no parseable events")
    if args.run or args.last:
        events = filter_events(events, runs=args.run, last=args.last)
        if not events:
            parser.error(
                f"no events in {args.path!r} match the requested session(s); "
                "run ids are listed in the unfiltered summary header"
            )
    summary = summarize_events(events)
    print(json.dumps(summary, indent=2) if args.json else render_summary(summary))
    return 0


def _select_trajectory_row(
    store, args: argparse.Namespace, parser: argparse.ArgumentParser
) -> dict:
    """Resolve a spec-hash prefix (+ optional ``--seed``) to one row."""
    rows = store.trajectory_rows(spec_prefix=args.spec)
    if args.seed is not None:
        rows = [row for row in rows if row["seed"] == args.seed]
    if not rows:
        parser.error(
            f"no stored trajectory matches spec prefix {args.spec!r}"
            + (f" with seed {args.seed}" if args.seed is not None else "")
            + "; list them with 'python -m repro dynamics show'"
        )
    if len(rows) > 1:
        candidates = ", ".join(
            f"{row['spec_hash'][:12]}/seed={row['seed']}/{row['backend_layout']}"
            for row in rows[:8]
        )
        parser.error(
            f"spec prefix {args.spec!r} is ambiguous ({len(rows)} trajectories: "
            f"{candidates}{', ...' if len(rows) > 8 else ''}); "
            "narrow the prefix or add --seed"
        )
    return rows[0]


def _load_trajectory(store, row: dict, parser: argparse.ArgumentParser):
    trajectory = store.get_trajectory(
        row["spec_hash"], row["seed"], row["backend_layout"]
    )
    if trajectory is None:
        parser.error(
            f"trajectory artifact for {row['spec_hash'][:12]}/seed={row['seed']} "
            "is missing or corrupt — re-run with --dynamics"
        )
    return trajectory


def _command_dynamics(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    with _open_store(args.store, parser) as store:
        if args.dynamics_command == "show":
            if args.spec is None:
                rows = store.trajectory_rows()
                if args.json:
                    print(json.dumps({"trajectories": rows}, indent=2))
                    return 0
                if not rows:
                    print(
                        "(no stored trajectories; record them with --dynamics "
                        "on campaign run or a --cache-dir sweep)"
                    )
                    return 0
                print(
                    f"{'spec':<14} {'seed':>6} {'layout':<24} {'window':>7} "
                    f"{'slots':>8} protocol"
                )
                for row in rows:
                    print(
                        f"{row['spec_hash'][:12]:<14} {row['seed']:>6} "
                        f"{row['backend_layout']:<24.24} {row['window']:>7} "
                        f"{row['num_slots']:>8} {row['protocol'] or '-'}"
                    )
                return 0
            from repro.dynamics import render_trajectory

            row = _select_trajectory_row(store, args, parser)
            trajectory = _load_trajectory(store, row, parser)
            if args.json:
                print(json.dumps(trajectory.to_dict(), indent=2))
                return 0
            label = (
                f"{row['protocol'] or '?'} spec={row['spec_hash'][:12]} "
                f"seed={row['seed']} [{row['backend_layout']}]"
            )
            print(render_trajectory(trajectory, label=label))
            return 0

        # dynamics export
        from repro.dynamics import trajectory_to_csv, trajectory_to_json

        row = _select_trajectory_row(store, args, parser)
        trajectory = _load_trajectory(store, row, parser)
        rendered = (
            trajectory_to_csv(trajectory)
            if args.export_format == "csv"
            else trajectory_to_json(trajectory)
        )
        if args.out is None:
            print(rendered, end="" if rendered.endswith("\n") else "\n")
            return 0
        out_path = pathlib.Path(args.out)
        try:
            out_path.parent.mkdir(parents=True, exist_ok=True)
            out_path.write_text(
                rendered if rendered.endswith("\n") else rendered + "\n",
                encoding="utf-8",
            )
        except OSError as exc:
            parser.error(f"cannot write --out {args.out!r}: {exc}")
        print(
            f"wrote {args.export_format} trajectory "
            f"{row['spec_hash'][:12]}/seed={row['seed']} to {out_path}"
        )
        return 0


def _command_cache(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    # A missing directory is a hard error (mistyped path).
    root = pathlib.Path(args.cache_dir)
    if not root.is_dir():
        parser.error(
            f"no cache directory at {args.cache_dir!r} "
            "(a --cache-dir sweep or 'campaign run' creates one)"
        )
    with _open_store(args.cache_dir, parser) as store:
        if args.cache_command == "stats":
            stats = store.stats()
            if args.json:
                print(json.dumps(stats, indent=2))
                return 0
            print(f"store: {stats['root']}")
            print(
                f"runs: {stats['runs']} "
                f"(by source: {stats['runs_by_source'] or '{}'}; "
                f"by layout: {stats['runs_by_layout'] or '{}'})"
            )
            print(f"campaigns: {stats['campaigns']}")
            print(f"trajectories: {stats.get('trajectories', 0)}")
            print(
                f"artifacts: {stats['artifacts']} files, "
                f"{stats['artifact_bytes']} bytes "
                f"(registry: {stats['db_bytes']} bytes)"
            )
            return 0

        # cache prune
        if args.older_than_days is None and args.max_bytes is None:
            parser.error("prune needs --older-than-days and/or --max-bytes")
        if args.older_than_days is not None and args.older_than_days < 0:
            parser.error("--older-than-days must be >= 0")
        if args.max_bytes is not None and args.max_bytes < 0:
            parser.error("--max-bytes must be >= 0")
        removed = store.prune(
            older_than_days=args.older_than_days,
            max_bytes=args.max_bytes,
            dry_run=args.dry_run,
        )
        prefix = "would remove" if removed["dry_run"] else "removed"
        print(
            f"{prefix} {removed['removed_runs']} cache entries and "
            f"{removed['removed_artifacts']} artifacts "
            f"({removed['removed_bytes']} bytes)"
        )
        return 0


def _command_perf(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.observe.perf import (
        DEFAULT_ALPHA,
        DEFAULT_BASELINE,
        DEFAULT_FACTOR,
        DEFAULT_WINDOW,
        record_scenario_perf,
        regress_groups,
    )

    if args.perf_command == "record":
        from repro.scenarios.spec import ScenarioError, resolve_scenario

        try:
            scenario = resolve_scenario(args.scenario)
        except ScenarioError as exc:
            parser.error(str(exc))
        seeds = _check_run_options(args, parser)
        if args.repeat < 1:
            parser.error("--repeat must be at least 1")
        with _open_store(args.store, parser, create=True) as store:
            samples = [
                record_scenario_perf(
                    store,
                    scenario,
                    scale=args.scale,
                    seeds=seeds,
                    backend_name=args.backend,
                    workers=args.workers,
                    label=args.label,
                )
                for _ in range(args.repeat)
            ]
        if args.json:
            print(json.dumps({"samples": samples}, indent=2))
            return 0
        for sample in samples:
            rate = (
                f"{sample['slots_per_second']:.0f} slots/s"
                if sample["slots_per_second"] is not None
                else "-"
            )
            print(
                f"recorded {sample['label']} [{sample['backend_layout']}] "
                f"host={sample['host']}: {sample['seconds']:.4f}s "
                f"({sample['runs']} runs, {rate})"
            )
        return 0

    with _open_store(args.store, parser) as store:
        rows = store.perf_sample_rows(spec_prefix=args.spec)

    if args.perf_command == "history":
        if args.json:
            print(json.dumps({"samples": rows}, indent=2))
            return 0
        if not rows:
            print("(no perf samples; record them with 'python -m repro perf record')")
            return 0
        print(
            f"{'label':<28} {'layout':<18} {'host':<14} {'runs':>5} "
            f"{'seconds':>10} {'slots/s':>10} recorded_at"
        )
        for row in rows:
            rate = (
                f"{row['slots_per_second']:.0f}"
                if row["slots_per_second"] is not None
                else "-"
            )
            print(
                f"{(row['label'] or row['spec_hash'][:12]):<28.28} "
                f"{row['backend_layout']:<18.18} {row['host']:<14.14} "
                f"{row['runs']:>5} {row['seconds']:>10.4f} {rate:>10} "
                f"{row['created_at']}"
            )
        return 0

    # regress
    verdicts = regress_groups(
        rows,
        window=args.window if args.window is not None else DEFAULT_WINDOW,
        baseline=args.baseline if args.baseline is not None else DEFAULT_BASELINE,
        alpha=args.alpha if args.alpha is not None else DEFAULT_ALPHA,
        factor=args.factor if args.factor is not None else DEFAULT_FACTOR,
    )
    drifted = [v for v in verdicts if v["status"] == "drift"]
    if args.json:
        print(
            json.dumps(
                {"groups": verdicts, "drifted": len(drifted)},
                indent=2,
            )
        )
        return 1 if drifted else 0
    if not verdicts:
        print("(no perf samples to test; record some first)")
        return 0
    for verdict in verdicts:
        name = verdict.get("label") or verdict["spec_hash"][:12]
        prefix = f"{name} [{verdict['backend_layout']}] host={verdict['host']}"
        if verdict["status"] == "insufficient":
            print(
                f"{prefix}: insufficient history "
                f"({verdict['samples']}/{verdict['needed']} samples)"
            )
            continue
        p_rendered = (
            f"p={verdict['p_value']:.4f}"
            if verdict["p_value"] is not None
            else "p=n/a"
        )
        print(
            f"{prefix}: {verdict['status']} — latest "
            f"{verdict['latest_mean']:.4f}s vs baseline "
            f"{verdict['baseline_mean']:.4f}s "
            f"(x{verdict['ratio']:.2f}, {p_rendered}, "
            f"{verdict['window']}/{verdict['baseline']} samples)"
        )
    if drifted:
        print(f"DRIFT: {len(drifted)} group(s) regressed")
        return 1
    return 0


def main(argv: Iterable[str] | None = None) -> int:
    from repro.analysis.equivalence import OptionError

    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        if args.command == "list":
            return _command_list(args)
        if args.command == "scenario":
            return _command_scenario(args, parser)
        if args.command == "equivalence":
            return _command_equivalence(args, parser)
        if args.command == "campaign":
            return _command_campaign(args, parser)
        if args.command == "telemetry":
            return _command_telemetry(args, parser)
        if args.command == "dynamics":
            return _command_dynamics(args, parser)
        if args.command == "cache":
            return _command_cache(args, parser)
        if args.command == "perf":
            return _command_perf(args, parser)
        return _command_run(args, parser)
    except OptionError as exc:
        # A bad comparison option is a usage error, never a verdict (exit 1);
        # the message starts with the option's name (no other underscores).
        parser.error("--" + str(exc).replace("_", "-"))


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
