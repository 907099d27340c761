"""Durable campaigns: persistent, resumable, multiplexed tuning runs.

The campaign subsystem adds three layers on top of the streaming session
API:

* :mod:`repro.campaigns.store` — :class:`CampaignStore` backends
  (:class:`InMemoryStore`, :class:`SqliteStore`) persisting an append-only
  event log plus periodic runtime-state snapshots;
* :mod:`repro.campaigns.campaign` — :class:`Campaign`, binding one
  :class:`~repro.core.session.TunerSession` to a store with crash-safe
  ``resume()`` (byte-identical to an uninterrupted run) and idempotent
  re-run detection via spec content fingerprints;
* :mod:`repro.campaigns.scheduler` — :class:`CampaignScheduler`,
  multiplexing N concurrent campaigns over one shared engine executor with
  budget-fair round-robin inside priority lanes.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".campaign": (
            "Campaign",
            "CampaignProgress",
            "CampaignSpec",
            "build_campaign_tuner",
            "campaign_progress",
            "campaign_summary",
        ),
        ".scheduler": ("CampaignScheduler", "SchedulerTick"),
        ".store": (
            "COMPLETED",
            "FAILED",
            "PAUSED",
            "PENDING",
            "RESUMABLE",
            "RUNNING",
            "CampaignEvent",
            "CampaignRecord",
            "CampaignSnapshot",
            "CampaignStore",
            "InMemoryStore",
            "SqliteStore",
            "replay_events",
        ),
    },
)
