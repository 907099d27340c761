"""Campaign progress replayed from a store's event log.

``campaign list``/``campaign show`` and the daemon's ``GET /campaigns`` only
read the store, so this module imports nothing but the store: listing
campaigns loads neither the tuner stack nor numpy.  Its names are
re-exported by :mod:`repro.campaigns.campaign`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.campaigns.store import CampaignStore, replay_events

#: The budget of a :class:`~repro.campaigns.campaign.CampaignSpec` that sets none.
DEFAULT_BUDGET = 500.0


@dataclass
class CampaignProgress:
    """Replayed progress of a campaign, as far as the store knows it."""

    campaign_id: str
    name: str
    status: str
    priority: int
    iterations: int = 0
    spent: float = 0.0
    budget: float = 0.0
    acquired: dict[str, int] = field(default_factory=dict)
    fulfillments: int = 0
    generations: int = 0
    slice_generation: int = 0

    @property
    def spent_fraction(self) -> float:
        """Fraction of the budget spent (1.0 when the budget is zero)."""
        return self.spent / self.budget if self.budget > 0 else 1.0


def campaign_progress(store: CampaignStore, campaign_id: str) -> CampaignProgress:
    """Replay a campaign's event log into a progress summary."""
    record = store.get_campaign(campaign_id)
    progress = CampaignProgress(
        campaign_id=campaign_id,
        name=record.name,
        status=record.status,
        priority=record.priority,
        budget=record.spec.get("budget", DEFAULT_BUDGET),
    )
    # Generations start at 0 and increment by one per resume, so the count
    # is the latest generation + 1 — no need to scan the log for it.
    progress.generations = store.latest_generation(campaign_id) + 1
    # Only iteration/fulfillment/reslice events are needed; skipping the
    # rest keeps progress summaries cheap on stores whose ``completed``
    # events embed full results.
    events = store.events(campaign_id, kinds=("iteration", "fulfillment", "reslice"))
    for event in replay_events(events):
        if event.kind == "iteration":
            progress.iterations += 1
            progress.spent += float(event.payload.get("spent", 0.0))
            for name, count in event.payload.get("acquired", {}).items():
                progress.acquired[name] = progress.acquired.get(name, 0) + int(count)
        elif event.kind == "fulfillment":
            progress.fulfillments += 1
        elif event.kind == "reslice":
            progress.slice_generation = max(
                progress.slice_generation,
                int(event.payload.get("slice_generation", 0)),
            )
    return progress


def campaign_summary(store: CampaignStore, campaign_id: str) -> dict[str, Any]:
    """One campaign's record + replayed progress as a JSON-compatible dict.

    The single source of the summary shape shared by the daemon's
    ``GET /campaigns`` payload and the CLI's ``--json`` output, so local
    and remote tooling parse one schema.
    """
    record = store.get_campaign(campaign_id)
    progress = campaign_progress(store, campaign_id)
    return {
        "campaign_id": record.campaign_id,
        "name": record.name,
        "status": record.status,
        "priority": record.priority,
        "iterations": progress.iterations,
        "spent": progress.spent,
        "budget": progress.budget,
        "acquired": dict(progress.acquired),
        "generations": progress.generations,
        "fulfillments": progress.fulfillments,
        "slice_generation": progress.slice_generation,
    }
