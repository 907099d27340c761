"""Outside-in tracer: times the calls into each layer's public functions.

The benchmark must not change the program to measure it, so this module
patches layer boundaries from the outside.  Every name is patched where its
callers look it up: module functions in the module that calls them
(``repro.core.oneshot.optimize_allocation``, not ``repro.core.optimizer``)
and methods on the class that defines them, so subclasses and instances
created later are covered too.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (``-1`` at top level) and ``op`` the id of the benchmark
operation (grid cell, campaign, CLI command) the span belongs to.  Spans stay
in memory until :meth:`Tracer.dump`.  The benchmark drives the program from a
single thread, so a plain stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


def _fit_examples(tracer, index, args, kwargs, result):
    train = kwargs["train"] if "train" in kwargs else args[2]
    tracer.counters["ml.fit.examples"] += result.epochs_run * len(train)


def _submit_wave(tracer, index, args, kwargs, result):
    width = len(result)
    tracer.counters["engine.jobs"] += width
    tracer.counters["engine.jobs_executed"] += sum(
        1 for job_result in result if not job_result.from_cache
    )
    tracer.maxima["engine.wave_width_max"] = max(
        tracer.maxima.get("engine.wave_width_max", 0), width
    )


def _cache_hit(tracer, index, args, kwargs, result):
    tracer.counters["diskcache.hits"] += result is not None


def _greedy_fallback(tracer, index, args, kwargs, result):
    tracer.counters["core.optimize.greedy_fallbacks"] += result.solver == "greedy"


def _delivered(tracer, index, args, kwargs, result):
    tracer.counters["acquisition.requested"] += result.request.count
    tracer.counters["acquisition.delivered"] += result.delivered_count


def _snapshot_bytes(tracer, index, args, kwargs, result):
    tracer.counters["campaigns.snapshot_bytes"] += len(kwargs["payload"])


def _step_campaign(tracer, index, args, kwargs, result):
    # The scheduler picks the campaign inside step(); label the step's spans
    # with it once the tick names it.
    if result is not None:
        for span in tracer.spans[index:]:
            span[4] = result.campaign_id


#: ``(layer metric name, module, attribute, after-hook)`` per boundary.
BOUNDARIES = (
    ("ml.fit", "repro.ml.train", "Trainer.fit", _fit_examples),
    ("engine.submit", "repro.engine.executor", "Executor.submit", _submit_wave),
    ("diskcache.get", "repro.engine.diskcache", "SqliteResultCache.get", _cache_hit),
    ("diskcache.put", "repro.engine.diskcache", "SqliteResultCache.put", None),
    ("curves.collect", "repro.curves.estimator", "LearningCurveEstimator.collect_points", None),
    ("curves.fit", "repro.curves.estimator", "LearningCurveEstimator.fit_points", None),
    ("core.optimize", "repro.core.oneshot", "optimize_allocation", _greedy_fallback),
    ("core.evaluate", "repro.core.tuner", "SliceTuner.evaluate", None),
    ("fairness.evaluate", "repro.core.tuner", "evaluate_fairness", None),
    ("acquisition.acquire", "repro.acquisition.service", "AcquisitionService.acquire", _delivered),
    ("datasets.prepare", "repro.experiments.runner", "prepare_named_instance", None),
    ("campaigns.append_event", "repro.campaigns.store", "SqliteStore.append_event", None),
    ("campaigns.save_snapshot", "repro.campaigns.store", "SqliteStore.save_snapshot", _snapshot_bytes),
    ("campaigns.latest_snapshot", "repro.campaigns.store", "SqliteStore.latest_snapshot", None),
    ("campaigns.events", "repro.campaigns.store", "SqliteStore.events", None),
    ("campaigns.checkpoint", "repro.campaigns.campaign", "Campaign.checkpoint", None),
    ("campaigns.step", "repro.campaigns.scheduler", "CampaignScheduler.step", _step_campaign),
    ("monitor.fold", "repro.monitor.health", "CampaignMonitor.fold", None),
    ("analytics.refresh", "repro.analytics.refresh", "Analytics.refresh", None),
    ("analytics.report", "repro.analytics.refresh", "Analytics.report", None),
)

BOUNDARY_NAMES = tuple(boundary[0] for boundary in BOUNDARIES)


class Tracer:
    """In-memory span recorder plus the counters taken at the boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.op: str | None = None
        self._stack: list[int] = []

    def wrap(self, name, function, after=None):
        """Return ``function`` recording one span per call under ``name``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(tracer, index, args, kwargs, result)
            return result

        return traced

    def merge(self, shipped: dict, op: str) -> None:
        """Append the spans and counters a traced child process shipped back."""
        offset = len(self.spans)
        for name, start, end, parent, _ in shipped["spans"]:
            self.spans.append(
                [name, start, end, parent + offset if parent >= 0 else -1, op]
            )
        self.counters.update(shipped["counters"])
        for key, value in shipped["maxima"].items():
            self.maxima[key] = max(self.maxima.get(key, 0), value)

    def state(self) -> dict:
        """Spans and counters as one JSON-serialisable object."""
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "maxima": self.maxima,
        }

    def dump(self, path: str) -> None:
        """Write every span, one JSON array per line, then the counters."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(
                json.dumps({"counters": dict(self.counters), "maxima": self.maxima})
                + "\n"
            )


def install(tracer: Tracer):
    """Patch every boundary to record into ``tracer``; returns the undo."""
    originals = []
    for name, module_name, attribute, after in BOUNDARIES:
        owner = importlib.import_module(module_name)
        *path, leaf = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        # The owner's own __dict__: a method must be patched on the class
        # that defines it, and the lookup fails loudly if it moved.
        original = vars(owner)[leaf]
        originals.append((owner, leaf, original))
        setattr(owner, leaf, tracer.wrap(name, original, after))

    def uninstall() -> None:
        for owner, leaf, original in reversed(originals):
            setattr(owner, leaf, original)

    return uninstall


def layer_times(spans) -> dict[str, dict[str, float]]:
    """Per boundary: call count, total duration and self time.

    Self time is a span's duration minus the time its direct children
    cover; spans nest strictly, so the children never overlap.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for (name, start, end, _, _), child_s in zip(spans, covered):
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += end - start
        layer["self_s"] += end - start - child_s
    return layers
