"""Slice Tuner: selective data acquisition for accurate and fair ML models.

A from-scratch reproduction of Tae & Whang, "Slice Tuner: A Selective Data
Acquisition Framework for Accurate and Fair Machine Learning Models"
(SIGMOD 2021), including every substrate the paper depends on: a NumPy
machine-learning stack, synthetic stand-ins for the paper's four datasets, an
acquisition/crowdsourcing simulator, learning-curve estimation, and the
selective data acquisition optimization itself.

Quickstart
----------
Every acquisition policy — the paper's One-shot and Iterative variants, the
allocation baselines, and the rotting-bandit comparator — is a registered
strategy; pick one by name::

    from repro import SliceTuner, available_strategies, fashion_like_task
    from repro import GeneratorDataSource

    print(available_strategies())
    # ('aggressive', 'bandit', 'conservative', 'moderate', 'oneshot',
    #  'proportional', 'uniform', 'water_filling')

    task = fashion_like_task()
    sliced = task.initial_sliced_dataset(initial_sizes=200, random_state=0)
    source = GeneratorDataSource(task, random_state=1)

    tuner = SliceTuner(sliced, source, random_state=2)
    result = tuner.run(budget=2000, method="moderate", lam=1.0)
    print(result.acquisitions_table())
    print(result.final_report.to_text())

Acquisition itself is a routed, batch-oriented service: sources are *named
providers* (``available_sources()`` lists the registry — ``generator``,
``pool``, ``crowdsourcing``, plus the ``composite`` failover and
``throttled`` rate-limit decorators), and a tuner can route every request
across a provider table with failover::

    pool_first = SliceTuner(
        sliced,
        sources={"pool": pool_source, "generator": source},  # priority order
        random_state=2,
    )

For step-wise control, stream the same run through a
:class:`~repro.core.session.TunerSession` — each acquisition batch is
yielded as it lands, with hooks, early stops, and checkpointing (and
``stream_events()`` additionally yields every
:class:`~repro.acquisition.requests.Fulfillment`: delivered counts,
shortfalls, and per-provider provenance)::

    session = tuner.session()
    session.add_early_stop(lambda record: record.imbalance_after < 1.5)
    for record in session.stream(budget=2000, strategy="aggressive"):
        print(f"iteration {record.iteration}: acquired {record.acquired}")
    result = session.result()
    checkpoint = session.state_dict()       # JSON-serializable
    print(result.to_json())                 # so is the result

For runs that must survive the process, wrap the session in a *campaign*:
a declarative :class:`~repro.campaigns.campaign.CampaignSpec` plus a
durable :class:`~repro.campaigns.store.CampaignStore` (in-memory or
stdlib-sqlite3 WAL) give crash-safe, byte-identical resume and idempotent
re-run detection, and a :class:`~repro.campaigns.scheduler.CampaignScheduler`
multiplexes many concurrent campaigns over one shared engine executor::

    store = SqliteStore("campaigns.sqlite")
    campaign = Campaign.start(store, CampaignSpec(name="nightly", budget=2000))
    campaign.run()                                  # kill -9 any time...
    Campaign.resume(store, campaign.campaign_id).run()   # ...and continue

To serve many clients from one long-running process, put the same store
behind the tuner service daemon (`python -m repro.cli serve`): a
stdlib-only HTTP JSON API over a shared background scheduler, streaming
live events over SSE, draining gracefully on SIGTERM::

    service = TunerService(store=SqliteStore("campaigns.sqlite")).start()
    server = TunerServer(service, port=8731).start_background()
    client = TunerClient(server.url)
    campaign_id = client.submit({"name": "nightly", "budget": 2000})["campaign_id"]
    for frame in client.tail(campaign_id):          # replay + live SSE
        print(frame["event"], frame["data"])

Registering a custom strategy
-----------------------------
A strategy answers one question — *what should the next acquisition batch
be?* — and the framework handles budgets, acquisition, records, and
evaluation.  Subclass :class:`~repro.core.strategy_api.AcquisitionStrategy`,
register it, and every entry point (``SliceTuner.run``, sessions, the CLI's
``--methods``/``strategies`` subcommands, the experiment runner) accepts it::

    from repro import AcquisitionPlan, AcquisitionStrategy, register_strategy

    @register_strategy("greedy_worst", description="all budget to the worst slice")
    class GreedyWorstSlice(AcquisitionStrategy):
        name = "greedy_worst"
        is_iterative = False            # one batch, like the baselines

        def propose(self, state, budget, lam):
            losses = state.slice_validation_losses()
            worst = max(losses, key=losses.get)
            count = int(budget // state.cost_model.cost(worst))
            return AcquisitionPlan(
                counts={worst: count},
                expected_cost=count * state.cost_model.cost(worst),
                solver=self.name,
            )

    result = tuner.run(budget=500, method="greedy_worst")

Iterative policies (``is_iterative = True``) are called repeatedly until the
budget runs dry; override ``observe(state, record)`` to digest each batch
(and return ``False`` to stop early), and ``state_dict``/``load_state_dict``
to participate in session checkpoints.

See ``examples/`` for runnable scripts and ``benchmarks/`` for the harness
that regenerates every table and figure of the paper's evaluation.
"""

from repro._lazy import lazy_exports

__version__ = "1.3.0"

_exported, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".analytics.refresh": ("Analytics", "REPORT_SCHEMA"),
        ".analytics.reference": ("assert_consistent", "reference_rows"),
        ".acquisition.requests": ("AcquisitionRequest", "Fulfillment"),
        ".acquisition.router": ("AcquisitionRouter",),
        ".acquisition.service": ("AcquisitionService",),
        ".acquisition.budget": ("BudgetLedger",),
        ".acquisition.providers": (
            "CompositeSource",
            "ThrottledSource",
            "available_sources",
            "get_source",
            "register_source",
            "source_descriptions",
        ),
        ".acquisition.crowdsourcing": ("CrowdsourcingSimulator", "WorkerPool"),
        ".acquisition.cost": ("EscalatingCost", "TableCost", "UnitCost"),
        ".acquisition.source": ("GeneratorDataSource", "PoolDataSource"),
        ".bandit.rotting": ("BanditResult", "RottingBanditAcquirer"),
        ".campaigns.campaign": ("Campaign", "CampaignSpec"),
        ".campaigns.scheduler": ("CampaignScheduler",),
        ".campaigns.store": ("CampaignStore", "InMemoryStore", "SqliteStore"),
        ".core.plan": ("AcquisitionPlan", "IterationRecord", "TuningResult"),
        ".core.strategy_api": ("AcquisitionStrategy", "TunerState"),
        ".core.iterative": ("IterativeAlgorithm",),
        ".core.oneshot": ("OneShotAlgorithm",),
        ".core.problem": ("SelectiveAcquisitionProblem",),
        ".core.tuner": ("SliceTuner", "SliceTunerConfig"),
        ".core.session": ("TunerSession",),
        ".core.registry": (
            "available_strategies",
            "get_strategy",
            "register_strategy",
            "strategy_descriptions",
        ),
        ".core.imbalance": ("get_change_ratio", "imbalance_ratio"),
        ".core.optimizer": ("optimize_allocation",),
        ".core.baselines": (
            "proportional_allocation",
            "uniform_allocation",
            "water_filling_allocation",
        ),
        ".curves.estimator": (
            "CurveEstimationConfig",
            "LearningCurveEstimator",
        ),
        ".curves.power_law": (
            "FittedCurve",
            "PowerLawCurve",
            "PowerLawWithFloor",
        ),
        ".curves.fitting": ("fit_power_law",),
        ".engine.cache": ("CurveCache", "InMemoryResultCache"),
        ".engine.executor": (
            "Executor",
            "ProcessPoolExecutor",
            "SerialExecutor",
            "available_executors",
            "get_executor",
        ),
        ".engine.factories": ("MLPFactory",),
        ".engine.diskcache": ("SqliteResultCache",),
        ".engine.job": ("TrainingJob",),
        ".datasets.blueprints": ("SliceBlueprint", "SyntheticTask"),
        ".datasets.adult": ("adult_like_task",),
        ".datasets.faces": ("faces_like_task",),
        ".datasets.fashion": ("fashion_like_task",),
        ".datasets.mixed": ("mixed_like_task",),
        ".fairness.report": ("FairnessReport", "evaluate_fairness"),
        ".fairness.metrics": (
            "average_equalized_error_rates",
            "max_equalized_error_rates",
            "unfairness",
        ),
        ".ml.data": ("Dataset",),
        ".ml.mlp": ("MLPClassifier",),
        ".ml.linear": ("SoftmaxRegression",),
        ".ml.train": ("Trainer", "TrainingConfig"),
        ".monitor.health": (
            "Alert",
            "CampaignMonitor",
            "HealthEvaluator",
            "alert_history",
        ),
        ".monitor.rules": (
            "AlertRule",
            "available_rules",
            "get_rule",
            "register_rule",
        ),
        ".serve.client": ("TunerClient",),
        ".serve.server": ("TunerServer",),
        ".serve.app": ("TunerService",),
        ".slices.slice": ("Slice", "SliceSpec"),
        ".slices.discovery": (
            "SliceDiscoveryMethod",
            "available_discovery_methods",
            "get_discovery_method",
            "register_discovery_method",
        ),
        ".slices.sliced_dataset": ("SlicedDataset",),
    },
)
__all__ = ["__version__", *_exported]
