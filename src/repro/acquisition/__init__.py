"""Data acquisition substrate.

The paper abstracts over how new data is obtained (dataset search,
crowdsourcing, simulators) behind a per-slice cost function.  This package
provides the same abstraction, plus the service layer that makes acquisition
batch-oriented, partially-fulfilled, and multi-source:

* :class:`~repro.acquisition.source.DataSource` — interface with
  ``acquire(slice_name, count)``.
* :class:`~repro.acquisition.source.GeneratorDataSource` — unlimited
  simulator-backed source (wraps a :class:`repro.datasets.SyntheticTask`).
* :class:`~repro.acquisition.source.PoolDataSource` — finite reserve pools,
  modelling a fixed unlabeled corpus that can run dry.
* :mod:`~repro.acquisition.providers` — the named provider registry
  (``register_source`` / ``get_source`` / ``available_sources``) and the
  :class:`~repro.acquisition.providers.CompositeSource` (priority/failover)
  and :class:`~repro.acquisition.providers.ThrottledSource` (rate limits +
  simulated latency) decorators.
* :mod:`~repro.acquisition.requests` —
  :class:`~repro.acquisition.requests.AcquisitionRequest` /
  :class:`~repro.acquisition.requests.Fulfillment`, the declarative
  request/fulfillment records.
* :class:`~repro.acquisition.router.AcquisitionRouter` — multi-source
  routing with per-slice routes and bounded retry rounds.
* :class:`~repro.acquisition.service.AcquisitionService` — the
  acquire/charge/record pipeline every driver funnels through.
* :mod:`~repro.acquisition.cost` — cost models (unit, per-slice table,
  escalating).
* :class:`~repro.acquisition.budget.BudgetLedger` — budget accounting.
* :class:`~repro.acquisition.crowdsourcing.CrowdsourcingSimulator` — the
  Amazon-Mechanical-Turk-style source with task durations, worker mistakes,
  duplicates, and a post-processing filter (Section 6.1).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".budget": ("BudgetLedger",),
        ".cost": (
            "CostModel",
            "EscalatingCost",
            "TableCost",
            "UnitCost",
            "cost_model_from_slices",
        ),
        ".crowdsourcing": (
            "AcquisitionReport",
            "CrowdsourcingSimulator",
            "WorkerPool",
        ),
        ".providers": (
            "CompositeSource",
            "ThrottledSource",
            "available_sources",
            "get_source",
            "is_source_registered",
            "register_source",
            "source_descriptions",
            "unregister_source",
        ),
        ".requests": ("AcquisitionRequest", "Fulfillment"),
        ".router": ("AcquisitionRouter", "RoutedDelivery"),
        ".service": ("AcquisitionService",),
        ".source": (
            "DataSource",
            "DiscoverySource",
            "GeneratorDataSource",
            "PoolDataSource",
        ),
    },
)
