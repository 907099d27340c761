"""The One-shot algorithm (Section 5.1 of the paper).

One-shot estimates the learning curves once, solves the convex optimization
once using the entire budget, and returns the resulting acquisition plan.  It
assumes the learning curves are perfect and the slices independent; the
Iterative algorithm (Section 5.2) relaxes both assumptions.
"""

from __future__ import annotations

from typing import Mapping

from repro.acquisition.cost import CostModel
from repro.core.optimizer import optimize_allocation
from repro.core.plan import AcquisitionPlan
from repro.core.problem import SelectiveAcquisitionProblem
from repro.core.registry import register_strategy
from repro.core.strategy_api import AcquisitionStrategy, TunerState, annotate_plan
from repro.curves.estimator import LearningCurveEstimator
from repro.curves.power_law import FittedCurve
from repro.slices.sliced_dataset import SlicedDataset
from repro.utils.validation import check_non_negative


class OneShotAlgorithm:
    """Estimate curves once, optimize once, spend the whole budget.

    Parameters
    ----------
    estimator:
        The learning-curve estimator to use.
    lam:
        Loss/unfairness trade-off weight passed to the optimizer.
    """

    def __init__(self, estimator: LearningCurveEstimator, lam: float = 1.0) -> None:
        self.estimator = estimator
        self.lam = check_non_negative(lam, "lam")

    def plan(
        self,
        sliced: SlicedDataset,
        budget: float,
        curves: Mapping[str, FittedCurve] | None = None,
        cost_model: CostModel | None = None,
    ) -> tuple[AcquisitionPlan, dict[str, FittedCurve]]:
        """Compute the acquisition plan for ``budget``.

        Parameters
        ----------
        sliced:
            The current slices and their data.
        budget:
            Budget for this plan (One-shot always plans to spend all of it).
        curves:
            Previously estimated curves to reuse; when omitted the estimator
            is run on the current data.
        cost_model:
            Per-slice cost model; defaults to the costs stored on the slices.

        Returns
        -------
        ``(plan, curves)`` — the integer acquisition plan and the learning
        curves it was computed from.
        """
        budget = check_non_negative(budget, "budget")
        if curves is None:
            curves = self.estimator.estimate(sliced)
        else:
            curves = dict(curves)

        if cost_model is not None:
            costs = {name: cost_model.cost(name) for name in sliced.names}
        else:
            costs = {name: sliced[name].cost for name in sliced.names}

        problem = SelectiveAcquisitionProblem.from_curves(
            curves=curves,
            sizes={name: sliced[name].size for name in sliced.names},
            costs=costs,
            budget=budget,
            lam=self.lam,
            order=sliced.names,
        )
        # The estimator's executor holds the run's result cache; a persistent
        # one memoizes the SLSQP solve.
        result = optimize_allocation(problem, cache=self.estimator.executor.cache)
        plan = AcquisitionPlan(
            counts=result.as_dict(problem.slice_names),
            expected_cost=result.spent,
            solver=f"oneshot/{result.solver}",
        )
        return plan, dict(curves)


@register_strategy(
    "oneshot",
    description="estimate curves once, optimize once, spend the whole budget",
)
class OneShotStrategy(AcquisitionStrategy):
    """Section 5.1 as a pluggable strategy: one proposal, one batch."""

    name = "oneshot"
    is_iterative = False
    uses_lam = True

    def propose(
        self, state: TunerState, budget: float, lam: float
    ) -> AcquisitionPlan:
        algorithm = OneShotAlgorithm(state.estimator, lam=lam)
        plan, curves = algorithm.plan(
            state.sliced, budget, cost_model=state.cost_model
        )
        return annotate_plan(
            plan,
            curve_parameters={
                name: (curve.b, curve.a) for name, curve in curves.items()
            },
        )
