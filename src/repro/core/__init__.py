"""Slice Tuner core: selective data acquisition (Sections 3 and 5 of the paper).

The pieces, bottom-up:

* :mod:`~repro.core.problem` — the selective data acquisition problem
  (Definition 2): slices, sizes, costs, fitted learning curves, budget, and
  the loss/unfairness trade-off weight ``lambda``.
* :mod:`~repro.core.optimizer` — the convex optimization that decides how
  many examples to acquire per slice (Section 5.1), plus integer rounding.
* :mod:`~repro.core.baselines` — Uniform, Water filling, and Proportional
  allocation baselines (Section 2.2).
* :mod:`~repro.core.imbalance` — imbalance ratio and the ``GetChangeRatio``
  solver used by Algorithm 1.
* :mod:`~repro.core.strategies` — Conservative / Moderate / Aggressive
  schedules for the imbalance-ratio change limit ``T``.
* :mod:`~repro.core.oneshot` / :mod:`~repro.core.iterative` — the One-shot
  algorithm and Algorithm 1 (iterative updates).
* :mod:`~repro.core.strategy_api` / :mod:`~repro.core.registry` — the
  pluggable :class:`AcquisitionStrategy` protocol and the string-keyed
  registry every method resolves through.
* :mod:`~repro.core.session` — :class:`TunerSession`, the streaming
  propose-acquire-refit loop with hooks, early stops, and checkpoints.
* :mod:`~repro.core.tuner` — :class:`SliceTuner`, the end-to-end orchestrator
  of Figure 4: estimate curves, optimize, acquire, repeat, evaluate.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".baselines": (
            "AllocationBaselineStrategy",
            "proportional_allocation",
            "uniform_allocation",
            "water_filling_allocation",
        ),
        ".imbalance": ("get_change_ratio", "imbalance_ratio"),
        ".iterative": ("IterativeAlgorithm", "ScheduledIterativeStrategy"),
        ".oneshot": ("OneShotAlgorithm", "OneShotStrategy"),
        ".optimizer": (
            "OptimizationResult",
            "optimize_allocation",
            "round_allocation",
        ),
        ".plan": ("AcquisitionPlan", "IterationRecord", "TuningResult"),
        ".problem": ("SelectiveAcquisitionProblem",),
        ".registry": (
            "available_strategies",
            "get_strategy",
            "is_registered",
            "register_strategy",
            "strategy_descriptions",
        ),
        ".session": (
            "FulfillmentEvent",
            "IterationEvent",
            "SessionEvent",
            "TunerSession",
        ),
        ".strategies": (
            "AggressiveStrategy",
            "ConservativeStrategy",
            "LimitStrategy",
            "ModerateStrategy",
            "make_strategy",
        ),
        ".strategy_api": ("AcquisitionStrategy", "TunerState"),
        ".tuner": ("SliceTuner", "SliceTunerConfig"),
    },
)
