"""Rendering experiment results as the paper's tables and figure series.

Beyond the paper's tables, :func:`engine_cache_stats` /
:func:`cache_stats_table` surface the execution engine's cache
effectiveness — result-cache and curve-cache hit rates plus the honest
training counter — so warm re-runs and campaign resumes are measurable
instead of anecdotal.  :func:`server_stats_table` /
:func:`server_status_line` do the same for the tuner service daemon:
requests served, campaigns by lifecycle state, events streamed, and the
shared training cache, rendered from the ``GET /stats`` payload.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Sequence

from repro.engine.cache import CacheStats
from repro.utils.tables import format_series, format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tuner import SliceTuner
    from repro.experiments.runner import MethodAggregate


def methods_table(
    aggregates: Mapping[str, MethodAggregate],
    title: str = "",
    method_order: Sequence[str] | None = None,
) -> str:
    """Table 2 / Table 7 / Table 9 / Table 10 style: Loss and Avg/Max EER per method."""
    order = list(method_order) if method_order else list(aggregates)
    rows = []
    for method in order:
        aggregate = aggregates[method]
        rows.append(
            [
                method,
                f"{aggregate.loss_mean:.3f} ± {aggregate.loss_std:.3f}",
                f"{aggregate.avg_eer_mean:.3f} / {aggregate.max_eer_mean:.3f}",
                f"{aggregate.iterations_mean:.1f}",
            ]
        )
    return format_table(
        headers=["Method", "Loss", "Avg./Max. EER", "# Iterations"],
        rows=rows,
        title=title,
    )


def allocations_table(
    aggregates: Mapping[str, MethodAggregate],
    slice_names: Sequence[str],
    title: str = "",
    method_order: Sequence[str] | None = None,
) -> str:
    """Table 3 / Table 5 / Table 11 style: mean examples acquired per slice."""
    order = list(method_order) if method_order else list(aggregates)
    rows = []
    for method in order:
        aggregate = aggregates[method]
        rows.append(
            [method]
            + [f"{aggregate.acquired_mean.get(name, 0.0):.0f}" for name in slice_names]
            + [f"{aggregate.iterations_mean:.1f}"]
        )
    return format_table(
        headers=["Method", *slice_names, "# Iters"],
        rows=rows,
        title=title,
    )


def comparison_table(
    per_setting: Mapping[str, Mapping[str, MethodAggregate]],
    methods: Sequence[str],
    title: str = "",
) -> str:
    """Table 6 style: methods as rows, settings as column groups."""
    headers = ["Method"]
    for setting in per_setting:
        headers.extend([f"{setting}: Loss", f"{setting}: Avg. EER"])
    rows = []
    for method in methods:
        row: list[object] = [method]
        for setting, aggregates in per_setting.items():
            aggregate = aggregates[method]
            row.append(f"{aggregate.loss_mean:.3f} ± {aggregate.loss_std:.3f}")
            row.append(f"{aggregate.avg_eer_mean:.3f} ± {aggregate.avg_eer_std:.3f}")
        rows.append(row)
    return format_table(headers=headers, rows=rows, title=title)


def engine_cache_stats(tuner: "SliceTuner") -> dict[str, CacheStats]:
    """The engine caches a tuner is running with, keyed by a display name.

    Covers the executor's content-addressed result cache (when attached)
    and the estimator's per-slice curve cache (when
    ``incremental_curves=True``).  Returns an empty mapping when the tuner
    runs cache-less.
    """
    stats: dict[str, CacheStats] = {}
    if tuner.executor.cache is not None:
        stats["results"] = tuner.executor.cache.stats
    if tuner.estimator.curve_cache is not None:
        stats["curves"] = tuner.estimator.curve_cache.stats
    return stats


def cache_stats_table(
    stats: Mapping[str, CacheStats],
    title: str = "Engine cache effectiveness",
    trainings_performed: int | None = None,
) -> str:
    """Hit/miss statistics of the engine caches as an aligned text table.

    ``trainings_performed`` (the estimator's honest counter — cache-served
    jobs never inflate it) is appended to the title when given, so one
    table answers both "how often did the cache help" and "how much work
    actually ran".
    """
    if trainings_performed is not None:
        title = f"{title} — {trainings_performed} trainings performed"
    rows = [
        [
            name,
            cache.requests,
            cache.hits,
            cache.misses,
            f"{cache.hit_rate:.0%}",
            cache.evictions,
        ]
        for name, cache in stats.items()
    ]
    if not rows:
        rows = [["(no caches attached)", 0, 0, 0, "0%", 0]]
    return format_table(
        headers=["cache", "lookups", "hits", "misses", "hit rate", "evictions"],
        rows=rows,
        title=title,
    )


#: ``/stats`` keys rendered by :func:`server_stats_table`, in display order,
#: with their human-readable row labels.
_SERVER_STAT_ROWS = (
    ("uptime_seconds", "uptime (s)"),
    ("requests", "HTTP requests"),
    ("errors", "request errors"),
    ("campaigns_submitted", "campaigns submitted"),
    ("campaigns_total", "campaigns stored"),
    ("campaigns_active", "campaigns active"),
    ("campaigns_completed", "campaigns completed"),
    ("campaigns_paused", "campaigns paused"),
    ("campaigns_failed", "campaigns failed"),
    ("scheduler_steps", "scheduler steps"),
    ("pump_running", "pump running"),
    ("pump_errors", "pump errors"),
    ("sse_connections", "event streams opened"),
    ("events_streamed", "events streamed"),
    ("reports_served", "analytics reports served"),
)


def server_stats_table(
    stats: Mapping[str, object], title: str = "Tuner service health"
) -> str:
    """The daemon's ``GET /stats`` payload as an aligned two-column table.

    Renders the known scheduler/server health counters in a stable order
    (unknown keys are ignored, missing ones skipped, so the table tolerates
    older and newer daemons), and appends the shared training-cache line
    when the payload carries one.
    """
    rows: list[list[object]] = [
        [label, stats[key]] for key, label in _SERVER_STAT_ROWS if key in stats
    ]
    cache = stats.get("cache")
    if isinstance(cache, Mapping):
        rows.append(
            [
                "shared result cache",
                f"{cache.get('hits', 0)}/{cache.get('requests', 0)} hits",
            ]
        )
    return format_table(headers=["metric", "value"], rows=rows, title=title)


def server_status_line(stats: Mapping[str, object]) -> str:
    """One ``--quiet``-compatible line summarizing daemon health."""
    return (
        f"up {float(stats.get('uptime_seconds', 0.0)):.0f}s — "
        f"{stats.get('campaigns_active', 0)} active / "
        f"{stats.get('campaigns_total', 0)} stored campaign(s), "
        f"{stats.get('requests', 0)} request(s), "
        f"{stats.get('events_streamed', 0)} event(s) streamed"
    )


def _report_cell(value: object) -> object:
    """Human-friendly rendering of one analytics report cell."""
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:.4g}"
    return value


def report_tables(payload: Mapping[str, object]) -> str:
    """A ``repro.report/1`` payload as aligned text tables, one per section.

    The payload is exactly what :meth:`Analytics.report
    <repro.analytics.refresh.Analytics.report>` builds (and ``--json``
    prints verbatim); this renderer only formats — floats to four
    significant digits, ``None`` as ``—`` — so the JSON stays the
    machine-readable source of truth.
    """
    sections = payload.get("sections")
    blocks: list[str] = []
    if isinstance(sections, Mapping):
        for name, section in sections.items():
            if not isinstance(section, Mapping):
                continue
            columns = [str(c) for c in section.get("columns", [])]
            rows = [
                [_report_cell(cell) for cell in row]
                for row in section.get("rows", [])
            ]
            if not rows:
                rows = [["(no rows)"] + [""] * (len(columns) - 1)]
            title = f"{name} — {section.get('doc', '')}".rstrip(" —")
            blocks.append(format_table(headers=columns, rows=rows, title=title))
    scope = payload.get("campaign_id") or "all campaigns"
    header = (
        f"report: {payload.get('report', '?')} ({scope}) "
        f"— through event seq {payload.get('cursor', 0)}"
    )
    return "\n\n".join([header] + blocks)


def series_text(
    series: Mapping[str, Sequence[tuple[float, float]]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Figure 7 / 8 / 9 / 10 / 11 style: named line series rendered as text."""
    return format_series(series, x_label=x_label, y_label=y_label, title=title)
