"""Analytics subsystem: SQL views over the campaign event log.

A read-everything / write-nothing layer on top of the campaign store:

* :mod:`~repro.analytics.views` — named SQL views (window functions over
  the replayed event mirror): trajectories, shortfall/failover rates,
  scheduler fairness, cache and reslice trends.
* :mod:`~repro.analytics.refresh` — :class:`Analytics`, the incrementally
  refreshed analytics database (``after=seq`` cursor, O(new events)).
* :mod:`~repro.analytics.reference` — pure-Python reference
  implementations and :func:`assert_consistent`, the row-for-row
  SQL-vs-Python checker behind ``cli report --verify``.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".refresh": ("REPORT_SCHEMA", "Analytics", "default_analytics_path"),
        ".reference": ("assert_consistent", "reference_rows"),
        ".views": ("REPORT_SECTIONS", "VIEW_DEFINITIONS", "ViewDef"),
    },
)
