"""Resumable replication campaigns over the results store.

A *campaign* executes a :class:`~repro.experiments.plan.SweepPlan`
(typically compiled from a :class:`~repro.scenarios.spec.Scenario`) against
any execution backend with **checkpointed progress**: the plan is cut into
units (one unit per scalar run chunk, one unit per lockstep vector batch),
every completed unit is committed to the :class:`~repro.store.ResultsStore`
transactionally, and an interrupted campaign — killed at any point —
resumes by skipping everything already stored and completes bit-identically
to an uninterrupted run.

On top of the store, :mod:`repro.campaigns.diff` compares two campaigns
metric-by-metric with the Welch/KS machinery from
:mod:`repro.analysis.equivalence`.
"""

from repro.campaigns.runner import (
    CampaignError,
    CampaignInterrupted,
    CampaignOutcome,
    campaign_report,
    campaign_status_rows,
    default_campaign_id,
    resume_campaign,
    start_campaign,
)
from repro.campaigns.diff import diff_campaign_trajectories, diff_campaigns

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "CampaignOutcome",
    "campaign_report",
    "campaign_status_rows",
    "default_campaign_id",
    "diff_campaign_trajectories",
    "diff_campaigns",
    "resume_campaign",
    "start_campaign",
]
