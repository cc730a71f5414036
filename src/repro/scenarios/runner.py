"""Compiling scenarios into sweep plans and running them.

A scenario compiles to one :class:`~repro.experiments.plan.SweepPlan`
group per protocol (the same configuration replicated over seeds), which
makes every execution backend — serial, process pool, result cache,
vector — available to scenario sweeps for free.  :func:`run_scenario`
wraps the plan's aggregated rows in a standard
:class:`~repro.experiments.spec.ExperimentReport`, so the CLI and the
archival JSON format are shared with the paper experiments.

Scale semantics: a scenario *declares* its scale (``max_slots``,
``replications``); ``smoke`` caps both so every scenario can run in
seconds inside tests and CI, ``default`` runs it as declared, and
``full`` doubles the replication count for tighter aggregates.
"""

from __future__ import annotations

from typing import Sequence

from repro.exec.backends import ExecutionBackend
from repro.experiments.plan import SweepPlan
from repro.experiments.spec import ExperimentReport, ExperimentSpec, check_scale
from repro.protocols.registry import get_protocol
from repro.scenarios.spec import Scenario

#: Smoke-scale caps: enough slots to cross several schedule phases, small
#: enough that the whole catalog runs in seconds on both engines.
SMOKE_MAX_SLOTS = 2000
SMOKE_REPLICATIONS = 2


def scenario_seeds(
    scenario: Scenario, scale: str = "default", seeds: Sequence[int] | None = None
) -> tuple[int, ...]:
    """The replicate seed list for ``scenario`` at ``scale``.

    Explicit ``seeds`` win; otherwise seeds are derived densely from
    ``base_seed`` so a scenario's replication set is a function of its
    definition alone.
    """
    check_scale(scale)
    if seeds is not None:
        if not seeds:
            raise ValueError("at least one seed is required")
        return tuple(seeds)
    replications = scenario.replications
    if scale == "smoke":
        replications = min(replications, SMOKE_REPLICATIONS)
    elif scale == "full":
        replications *= 2
    return tuple(scenario.base_seed + index for index in range(replications))


def scenario_max_slots(scenario: Scenario, scale: str = "default") -> int:
    """The slot horizon for ``scenario`` at ``scale`` (smoke caps it)."""
    check_scale(scale)
    if scale == "smoke":
        return min(scenario.max_slots, SMOKE_MAX_SLOTS)
    return scenario.max_slots


def build_plan(
    scenario: Scenario,
    scale: str = "default",
    seeds: Sequence[int] | None = None,
) -> SweepPlan:
    """One sweep group per protocol, all sharing the scenario's adversary."""
    scale = check_scale(scale)
    seed_list = scenario_seeds(scenario, scale, seeds)
    max_slots = scenario_max_slots(scenario, scale)
    adversary = scenario.adversary_factory()
    plan = SweepPlan()
    for protocol_name in scenario.protocols:
        plan.add_group(
            get_protocol(protocol_name),
            adversary,
            seed_list,
            columns={"scenario": scenario.scenario_id},
            max_slots=max_slots,
        )
    return plan


def run_scenario(
    scenario: Scenario,
    *,
    scale: str = "default",
    seeds: Sequence[int] | None = None,
    backend: ExecutionBackend | None = None,
) -> ExperimentReport:
    """Run ``scenario`` on ``backend`` and aggregate one row per protocol."""
    scale = check_scale(scale)
    plan = build_plan(scenario, scale, seeds)
    spec = ExperimentSpec(
        exp_id=scenario.scenario_id,
        title=scenario.title,
        claim=scenario.description or "(no description)",
        bench_target=f"python -m repro scenario run {scenario.scenario_id}",
    )
    report = ExperimentReport(spec=spec)
    results = plan.run(backend)
    for row in results.group_rows():
        report.add_row(row)
    for row in report.rows:
        report.verdicts[f"{row['protocol']}_throughput"] = f"{row['throughput']:.3f}"
    summary = plan.vector_summary()
    report.notes.append(f"scenario content hash: {scenario.content_hash()[:12]}")
    report.notes.append(
        f"scale={scale}: {len(plan)} runs, max_slots={scenario_max_slots(scenario, scale)}, "
        f"seeds={list(scenario_seeds(scenario, scale, seeds))}"
    )
    report.notes.append(
        f"vectorizable: {summary['vectorizable_specs']}/{summary['total_specs']} specs"
    )
    for group_id, reason in sorted(summary["fallback_groups"].items()):
        protocol = plan.groups[group_id].protocol_name
        report.notes.append(f"scalar fallback [{protocol}]: {reason}")
    return report
