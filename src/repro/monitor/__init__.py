"""Health & alerting: SLO rules, rolling-window evaluation, regression watch.

The layer that turns PR 9's raw telemetry into verdicts:

* :mod:`~repro.monitor.rules` — declarative, frozen :class:`AlertRule`
  definitions behind a ``register_rule`` registry, with built-ins for
  provider failover, fulfillment shortfall, span errors, cache hit-rate
  collapse, and scheduler lane starvation.
* :mod:`~repro.monitor.windows` — seq-cursored incremental rolling
  windows (keyed by iteration / evaluation index, never wall-clock).
* :mod:`~repro.monitor.health` — :class:`CampaignMonitor` (folds a
  campaign's durable events into persisted ``alert`` events) and
  :class:`HealthEvaluator` (per-component ok/degraded/critical verdicts
  behind ``GET /health/deep`` and ``cli monitor status``).
* :mod:`~repro.monitor.regression` — the benchmark watchdog comparing
  fresh runs against the committed ``benchmarks/BENCH_*.json`` points.

Monitoring reads events and metric snapshots and *appends* alert events;
it never touches tuner state, so monitored and unmonitored runs produce
byte-identical tuning results.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".health": (
            "STATES",
            "Alert",
            "CampaignMonitor",
            "HealthEvaluator",
            "alert_history",
            "worst_status",
        ),
        ".regression": (
            "Regression",
            "compare_numbers",
            "load_benchmarks",
            "watchdog",
        ),
        ".rules": (
            "COMPONENTS",
            "SEVERITIES",
            "AlertRule",
            "available_rules",
            "campaign_rules",
            "get_rule",
            "is_rule",
            "register_rule",
            "rule_descriptions",
            "service_rules",
            "unregister_rule",
        ),
        ".windows": ("RollingWindow",),
    },
)
