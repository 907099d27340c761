"""Multiplexing many campaigns over one shared engine executor.

:class:`CampaignScheduler` drives N concurrent campaigns one iteration at a
time over a single :class:`~repro.engine.executor.Executor` (and therefore
one shared result cache), interleaving them with **budget-fair round-robin
inside priority lanes**:

* the highest-priority lane with an unfinished campaign always schedules
  first (``CampaignSpec.priority``, higher = more urgent);
* within a lane, the campaign that has spent the *smallest fraction* of its
  budget goes next, so a cheap-per-iteration campaign cannot starve an
  expensive one — progress is fair in budget, not in iteration count;
* ties (e.g. at the start, when every campaign has spent nothing) fall back
  to least-recently-scheduled order, i.e. plain round-robin.

Every scheduled step emits a :class:`SchedulerTick` to the registered
progress callbacks, so dashboards and the CLI can watch all campaigns at
once.  Because each campaign owns its instance, RNG streams, and ledger, and
per-job seeds are pre-spawned, the interleaving (and the executor backend)
never changes any campaign's numbers: scheduling N campaigns concurrently
yields byte-identical results to running them serially.

Two driving modes share the same scheduling loop:

* **foreground** — :meth:`CampaignScheduler.run` steps until every
  registered campaign is done (the CLI ``campaign`` commands);
* **background pump** — :meth:`CampaignScheduler.start_pump` moves the loop
  onto a daemon thread and makes registration thread-safe, so new campaigns
  can be submitted *while others are running* (the tuner service daemon).
  One re-entrant lock serializes scheduling steps against registration,
  pause/resume, and :meth:`drain`, which means every external mutation
  lands exactly at an iteration boundary — the only place campaign state
  may be touched without breaking the byte-identical resume guarantee.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

from repro.campaigns.campaign import Campaign, CampaignSpec
from repro.campaigns.store import RUNNING, CampaignStore, InMemoryStore
from repro.core.plan import TuningResult
from repro.engine.cache import ResultCache
from repro.engine.executor import Executor, SerialExecutor
from repro.telemetry import get_registry, get_tracer
from repro.utils.exceptions import CampaignError


@dataclass(frozen=True)
class SchedulerTick:
    """One scheduled step of one campaign, as seen by progress callbacks.

    Attributes
    ----------
    campaign_id / name / priority:
        Which campaign was scheduled, and in which lane.
    iteration:
        The iteration that just landed (``-1`` for the finalizing tick that
        drained the campaign).
    spent / budget:
        The campaign's budget position after the step.
    done:
        True on the tick that completed the campaign.
    slice_generation:
        The campaign's current slice generation (0 until a dynamic
        campaign's first re-slice lands).
    """

    campaign_id: str
    name: str
    priority: int
    iteration: int
    spent: float
    budget: float
    done: bool
    slice_generation: int = 0


#: Signature of a scheduler progress callback.
ProgressCallback = Callable[[SchedulerTick], None]


@dataclass
class _Entry:
    campaign: Campaign
    order: int
    last_step: int = 0
    paused: bool = False
    failed: bool = False


class CampaignScheduler:
    """Budget-fair, priority-laned multiplexer of concurrent campaigns.

    Parameters
    ----------
    store:
        The shared :class:`~repro.campaigns.store.CampaignStore` every
        scheduled campaign persists into (an
        :class:`~repro.campaigns.store.InMemoryStore` by default).
    executor:
        One engine executor shared by every campaign's trainings; defaults
        to a :class:`~repro.engine.executor.SerialExecutor` carrying
        ``result_cache``.  Sharing is safe — the cache is content-addressed
        — and lets identical trainings across campaigns be served once.
    result_cache:
        Attached to the default executor (ignored when ``executor`` is
        supplied; attach the cache to that executor yourself).
    on_progress:
        Optional :class:`SchedulerTick` callback registered up-front.
    """

    def __init__(
        self,
        store: CampaignStore | None = None,
        executor: Executor | None = None,
        result_cache: ResultCache | None = None,
        on_progress: ProgressCallback | None = None,
    ) -> None:
        self.store = store if store is not None else InMemoryStore()
        self.executor = executor or SerialExecutor(cache=result_cache)
        self._entries: list[_Entry] = []
        self._callbacks: list[ProgressCallback] = (
            [on_progress] if on_progress else []
        )
        self._steps = 0
        #: ``(campaign_id, exception)`` pairs collected by the background
        #: pump — a failing campaign is parked (its entry marked failed, its
        #: store status already FAILED) instead of killing the pump thread.
        self.errors: list[tuple[str, Exception]] = []
        self._lock = threading.RLock()
        self._wake = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._pump: threading.Thread | None = None

    # -- registration ------------------------------------------------------------
    def add(self, spec: CampaignSpec) -> Campaign:
        """Schedule a new campaign (deduplicated by content fingerprint)."""
        with self._lock:
            campaign = Campaign.start(self.store, spec, executor=self.executor)
            return self._register(campaign)

    def add_existing(self, campaign_id: str) -> Campaign:
        """Schedule a stored campaign for (re)execution on this scheduler."""
        with self._lock:
            campaign = Campaign.resume(
                self.store, campaign_id, executor=self.executor
            )
            return self._register(campaign)

    def add_progress_callback(self, callback: ProgressCallback) -> "CampaignScheduler":
        """Fire ``callback`` with every :class:`SchedulerTick`; returns self."""
        self._callbacks.append(callback)
        return self

    def _register(self, campaign: Campaign) -> Campaign:
        if any(
            entry.campaign.campaign_id == campaign.campaign_id
            for entry in self._entries
        ):
            raise CampaignError(
                f"campaign {campaign.campaign_id!r} is already scheduled"
            )
        self._entries.append(_Entry(campaign, order=len(self._entries)))
        self._wake.notify_all()
        return campaign

    @property
    def campaigns(self) -> list[Campaign]:
        """Every scheduled campaign, in registration order."""
        with self._lock:
            return [entry.campaign for entry in self._entries]

    @property
    def steps(self) -> int:
        """Total scheduling steps taken so far (foreground and pump)."""
        return self._steps

    def find(self, campaign_id: str) -> Campaign | None:
        """The scheduled campaign with ``campaign_id``, or ``None``."""
        with self._lock:
            entry = self._find_entry(campaign_id)
            return None if entry is None else entry.campaign

    def _find_entry(self, campaign_id: str) -> "_Entry | None":
        for entry in self._entries:
            if entry.campaign.campaign_id == campaign_id:
                return entry
        return None

    # -- the scheduling loop -----------------------------------------------------
    def run(self) -> dict[str, TuningResult]:
        """Drive every scheduled campaign to completion, interleaved.

        Returns ``{campaign id: result}`` — campaign ids are unique per
        store, unlike names, so no result can be shadowed.  Campaigns that
        were already complete (idempotent re-runs) contribute their stored
        result without consuming any schedule slots.
        """
        while self.step() is not None:
            pass
        with self._lock:
            return {
                entry.campaign.campaign_id: entry.campaign.result()
                for entry in self._entries
                if entry.campaign.is_done
            }

    def step(self) -> SchedulerTick | None:
        """Schedule a single iteration; ``None`` when nothing is runnable.

        Paused and failed entries are skipped (they stay registered, so
        :meth:`resume_campaign` can revive a paused one); a ``None`` return
        therefore means "idle", not necessarily "everything completed".
        """
        with self._lock:
            active = [
                entry
                for entry in self._entries
                if not (entry.campaign.is_done or entry.paused or entry.failed)
            ]
            if not active:
                return None
            entry = self._pick(active)
            self._steps += 1
            entry.last_step = self._steps
            get_registry().counter("scheduler.steps").inc()
            # Per-lane step counts feed the monitor's lane_starvation rule.
            get_registry().counter(
                "scheduler.lane_steps", lane=entry.campaign.spec.priority
            ).inc()
            try:
                with get_tracer().span(
                    "scheduler.step",
                    attributes={
                        "campaign_id": entry.campaign.campaign_id,
                        "step": self._steps,
                    },
                ):
                    record = entry.campaign.advance()
            except Exception as error:
                # Campaign.advance already flipped the store status to
                # FAILED; park the entry so one bad campaign cannot wedge
                # the loop, and let the driver decide what to do with the
                # exception (run() re-raises, the pump collects it).
                entry.failed = True
                try:
                    error.campaign_id = entry.campaign.campaign_id  # type: ignore[attr-defined]
                except AttributeError:  # an exception that takes no attributes
                    pass
                raise
            done = record is None
            return self._emit(entry, -1 if done else record.iteration, done)

    # -- the background pump -----------------------------------------------------
    @property
    def pump_running(self) -> bool:
        """True while the background pump thread is alive."""
        pump = self._pump
        return pump is not None and pump.is_alive()

    def start_pump(self, poll_interval: float = 0.1) -> "CampaignScheduler":
        """Move the scheduling loop onto a daemon thread; returns self.

        The pump keeps calling :meth:`step`; when idle it sleeps up to
        ``poll_interval`` seconds (woken immediately by new submissions), so
        campaigns registered while others run start without delay.  A
        campaign whose :meth:`~repro.campaigns.campaign.Campaign.advance`
        raises is parked as failed and recorded in :attr:`errors`; the pump
        itself keeps running.
        """
        with self._lock:
            if self.pump_running:
                raise CampaignError("the scheduler pump is already running")
            self._stop.clear()
            self._pump = threading.Thread(
                target=self._pump_loop,
                args=(float(poll_interval),),
                name="campaign-scheduler-pump",
                daemon=True,
            )
            self._pump.start()
        return self

    def _pump_loop(self, poll_interval: float) -> None:
        while not self._stop.is_set():
            try:
                tick = self.step()
            except Exception as error:  # noqa: BLE001 - pump must survive
                self.errors.append(
                    (str(getattr(error, "campaign_id", "?")), error)
                )
                continue
            if tick is None:
                with self._wake:
                    if not self._stop.is_set():
                        self._wake.wait(poll_interval)

    def stop_pump(self) -> None:
        """Stop the pump thread and wait for the in-flight step to finish."""
        self._stop.set()
        with self._wake:
            self._wake.notify_all()
        pump = self._pump
        if pump is not None and pump.is_alive():
            pump.join()
        self._pump = None

    def drain(self) -> list[str]:
        """Graceful shutdown: stop the pump, checkpoint + pause what's left.

        Every unfinished campaign gets a final runtime-state snapshot (via
        :meth:`Campaign.suspend <repro.campaigns.campaign.Campaign.suspend>`,
        called at the iteration boundary the stopped pump left behind) and
        its store status set to paused, so a restarted daemon resumes each
        one byte-identically.  Returns the suspended campaign ids.
        """
        self.stop_pump()
        suspended = []
        with self._lock:
            for entry in self._entries:
                if entry.failed or entry.paused:
                    continue  # failed stays failed; paused is already checkpointed
                if entry.campaign.suspend():
                    entry.paused = True
                    suspended.append(entry.campaign.campaign_id)
        return suspended

    # -- pause / resume ----------------------------------------------------------
    def pause_campaign(self, campaign_id: str) -> bool:
        """Checkpoint + pause one scheduled campaign; False when done/unknown.

        Taking the scheduling lock guarantees the pause lands between
        iterations, so the checkpoint is a clean resume point.
        """
        with self._lock:
            entry = self._find_entry(campaign_id)
            if entry is None or entry.campaign.is_done:
                return False
            if entry.campaign.suspend():
                entry.paused = True
                return True
            return False

    def resume_campaign(self, campaign_id: str) -> Campaign:
        """(Re)activate a campaign: un-pause it, or register it from the store.

        A campaign that *failed* under the pump is retried with a fresh
        :class:`Campaign` rebuilt from the store (its live session died
        mid-advance and cannot be trusted), exactly as a daemon restart
        would — the entry is dropped and re-registered.
        """
        with self._lock:
            entry = self._find_entry(campaign_id)
            if entry is None:
                return self.add_existing(campaign_id)
            if entry.failed:
                self._entries.remove(entry)
                return self.add_existing(campaign_id)
            if entry.paused and not entry.campaign.is_done:
                entry.paused = False
                self.store.set_status(campaign_id, RUNNING)
                self._wake.notify_all()
            return entry.campaign

    def _pick(self, active: list[_Entry]) -> _Entry:
        """Budget-fair choice inside the highest non-empty priority lane."""
        lane = max(entry.campaign.spec.priority for entry in active)
        candidates = [
            entry for entry in active if entry.campaign.spec.priority == lane
        ]
        return min(
            candidates,
            key=lambda entry: (
                entry.campaign.spent_fraction,
                entry.last_step,
                entry.order,
            ),
        )

    def _emit(self, entry: _Entry, iteration: int, done: bool) -> SchedulerTick:
        campaign = entry.campaign
        tick = SchedulerTick(
            campaign_id=campaign.campaign_id,
            name=campaign.spec.name,
            priority=campaign.spec.priority,
            iteration=iteration,
            spent=campaign.spent,
            budget=campaign.spec.budget,
            done=done,
            slice_generation=campaign.slice_generation,
        )
        for callback in self._callbacks:
            callback(tick)
        return tick
