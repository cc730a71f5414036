"""Cross-campaign regression diffing.

Two stored campaigns of the same scenario (typically: one recorded before a
change, one after) are compared **metric by metric, group by group** with
the same Welch t-test / Kolmogorov–Smirnov machinery that guards the
vector-vs-serial equivalence contract
(:func:`repro.analysis.equivalence.compare_result_sets`).  Replicate-level
metrics (throughput, mean accesses, mean latency) are compared as means;
per-packet latency/access distributions are pooled and KS-tested, which is
what catches a distribution-shape regression that leaves the mean intact.

The comparison is surfaced as ``python -m repro campaign diff``, which
exits non-zero on any flagged regression so CI can gate on it.  Wall-clock
drift is a separate question, answered by the store's host-keyed perf
samples (``python -m repro perf regress``, :mod:`repro.observe.perf`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.equivalence import EquivalenceReport, compare_result_sets
from repro.campaigns.runner import CampaignError
from repro.dynamics import compare_trajectory_sets
from repro.sim.results import SimulationResult
from repro.store import ResultsStore


@dataclass
class CampaignDiff:
    """All per-group comparisons between two campaigns."""

    left_id: str
    right_id: str
    reports: dict[str, EquivalenceReport] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if self.missing:
            return False
        return all(report.passed for report in self.reports.values())

    def render(self) -> str:
        lines = [
            f"campaign diff: {self.left_id} vs {self.right_id} — "
            + ("PASS" if self.passed else "REGRESSION")
        ]
        for protocol in sorted(self.reports):
            report = self.reports[protocol]
            lines.append(f"-- [{protocol}]")
            lines.extend("  " + line for line in report.render().splitlines())
        lines.extend(f"  missing: {item}" for item in self.missing)
        lines.extend(f"  note: {note}" for note in self.notes)
        return "\n".join(lines)


def _campaign_results(
    store: ResultsStore, campaign_id: str
) -> dict[str, list[SimulationResult]]:
    """Full stored results of one campaign, grouped by protocol."""
    campaign = store.get_campaign(campaign_id)
    if campaign is None:
        raise CampaignError(f"unknown campaign {campaign_id!r}")
    grouped: dict[str, list[SimulationResult]] = {}
    for membership in store.campaign_run_rows(campaign_id):
        result = store.get_result(
            membership["spec_hash"], membership["seed"], membership["backend_layout"]
        )
        if result is None:
            raise CampaignError(
                f"campaign {campaign_id!r}: artifact missing or corrupt for run "
                f"{membership['spec_hash'][:12]}/{membership['seed']}; "
                "the store is damaged — re-run the campaign"
            )
        grouped.setdefault(membership["protocol"], []).append(result)
    if not grouped:
        raise CampaignError(f"campaign {campaign_id!r} has no recorded runs yet")
    return grouped


def diff_campaigns(
    left_store: ResultsStore,
    left_id: str,
    right_store: ResultsStore | None = None,
    right_id: str | None = None,
    *,
    alpha: float = 0.001,
    mean_alpha: float = 0.002,
    relative_tolerance: float = 0.15,
    trajectories: bool = False,
    trajectory_window: int | None = None,
    trajectory_alpha: float = 0.01,
) -> CampaignDiff:
    """Compare two campaigns' stored results metric-by-metric.

    The campaigns may live in one store or two (``right_store`` defaults
    to ``left_store``).  Groups are matched by protocol name; a protocol
    present on only one side is itself flagged as a regression (coverage
    loss is a regression too).

    ``trajectories=True`` additionally compares the *paths* window by
    window (:func:`repro.dynamics.compare_trajectory_sets`), which catches
    a mid-run regression whose end-of-run aggregates cancel out; its
    flagged windows join each protocol's report as failing comparisons.
    """
    if right_id is None:
        raise CampaignError("diff needs two campaign ids")
    right_store = right_store or left_store
    left = _campaign_results(left_store, left_id)
    right = _campaign_results(right_store, right_id)
    diff = CampaignDiff(left_id=left_id, right_id=right_id)
    for store, campaign_id in ((left_store, left_id), (right_store, right_id)):
        campaign = store.get_campaign(campaign_id) or {}
        if campaign.get("status") != "complete":
            done = store.campaign_run_count(campaign_id)
            # An incomplete side silently shrinks its replicate sets, which
            # weakens every test below — that is itself a regression.
            diff.missing.append(
                f"campaign {campaign_id!r} is incomplete "
                f"({done}/{campaign.get('total_runs')} runs recorded)"
            )
    left_campaign = left_store.get_campaign(left_id) or {}
    right_campaign = right_store.get_campaign(right_id) or {}
    if (
        left_campaign.get("scenario_hash")
        and left_campaign.get("scenario_hash") != right_campaign.get("scenario_hash")
    ):
        diff.notes.append(
            "scenario definitions differ "
            f"({(left_campaign.get('scenario_hash') or '')[:12]} vs "
            f"{(right_campaign.get('scenario_hash') or '')[:12]}); "
            "comparing by protocol anyway"
        )
    for protocol in sorted(set(left) - set(right)):
        diff.missing.append(f"protocol {protocol!r} only in {left_id}")
    for protocol in sorted(set(right) - set(left)):
        diff.missing.append(f"protocol {protocol!r} only in {right_id}")
    for protocol in sorted(set(left) & set(right)):
        report = compare_result_sets(
            left[protocol],
            right[protocol],
            alpha=alpha,
            mean_alpha=mean_alpha,
            relative_tolerance=relative_tolerance,
            labels=(left_id, right_id),
        )
        if trajectories:
            windows = compare_trajectory_sets(
                left[protocol],
                right[protocol],
                window=trajectory_window,
                alpha=trajectory_alpha,
                relative_tolerance=relative_tolerance,
                labels=(left_id, right_id),
            )
            report.comparisons.extend(windows.comparisons)
            report.notes.extend(windows.notes)
        diff.reports[protocol] = report
    return diff
