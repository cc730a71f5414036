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
metric-by-metric through the comparison core in
:mod:`repro.analysis.equivalence` (Welch/KS), and with ``trajectories=True``
window by window as well.
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
from repro.campaigns.diff import diff_campaigns

__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "CampaignOutcome",
    "campaign_report",
    "campaign_status_rows",
    "default_campaign_id",
    "diff_campaigns",
    "resume_campaign",
    "start_campaign",
]
