"""The Iterative algorithm — Algorithm 1 of the paper (Section 5.2).

The Iterative algorithm repeatedly:

1. re-estimates the learning curves on the current data,
2. runs One-shot with the *entire remaining budget*,
3. caps the resulting acquisition so the imbalance ratio changes by at most
   ``T`` (scaling the allocation by the ``GetChangeRatio`` factor),
4. acquires the capped allocation, charges the budget, and
5. grows ``T`` according to the chosen strategy.

It also enforces the minimum slice size ``L`` up front.  The iterative
updates keep the learning curves reliable and account for cross-slice
influence, which is why the paper's Conservative/Moderate/Aggressive variants
beat One-shot.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.acquisition.budget import BudgetLedger
from repro.acquisition.cost import CostModel, TableCost
from repro.acquisition.source import DataSource
from repro.core.imbalance import get_change_ratio, imbalance_ratio
from repro.core.oneshot import OneShotAlgorithm
from repro.core.plan import AcquisitionPlan, IterationRecord, TuningResult
from repro.core.registry import register_strategy
from repro.core.strategies import LimitStrategy, make_strategy
from repro.core.strategy_api import (
    AcquisitionStrategy,
    TunerState,
    acquire_batch,
    top_up_minimum_sizes,
)
from repro.slices.sliced_dataset import SlicedDataset
from repro.utils.exceptions import OptimizationError
from repro.utils.validation import check_non_negative_int, check_positive_int


def cap_change_by_limit(
    sizes: np.ndarray,
    order: tuple[str, ...],
    requested: dict[str, int],
    current_ratio: float,
    limit: float,
    cache: object | None = None,
) -> tuple[dict[str, int], float]:
    """Cap ``requested`` so the imbalance ratio changes by at most ``limit``.

    Returns the (possibly scaled-down) integer allocation and the imbalance
    ratio it would produce.  This is the ``GetChangeRatio`` step of
    Algorithm 1, shared by :class:`IterativeAlgorithm` and
    :class:`ScheduledIterativeStrategy`; ``cache`` is passed through to
    :func:`~repro.core.imbalance.get_change_ratio`.
    """
    sizes = sizes.astype(np.float64)
    num = np.array([requested[name] for name in order], dtype=np.float64)
    after_ratio = imbalance_ratio(sizes + num)
    if abs(after_ratio - current_ratio) <= limit:
        return dict(requested), float(after_ratio)
    target = current_ratio + limit * np.sign(after_ratio - current_ratio)
    try:
        change_ratio = get_change_ratio(sizes, num, target, cache=cache)
    except OptimizationError:
        change_ratio = 1.0
    num = np.floor(change_ratio * num)
    capped = {name: int(count) for name, count in zip(order, num)}
    return capped, float(imbalance_ratio(sizes + num))


class IterativeAlgorithm:
    """Algorithm 1: iterative selective data acquisition.

    .. note::
       This is the standalone, tuner-free driver of Algorithm 1.  The
       orchestrator (:meth:`repro.core.tuner.SliceTuner.run`) now runs the
       same algorithm through :class:`ScheduledIterativeStrategy` inside a
       :class:`~repro.core.session.TunerSession`; both charge the budget for
       delivered (not merely requested) examples.

    Parameters
    ----------
    oneshot:
        The One-shot planner invoked each iteration with the remaining budget.
    strategy:
        Schedule for the imbalance-ratio change limit ``T``
        (Conservative / Moderate / Aggressive).
    min_slice_size:
        The paper's ``L``: every slice is topped up to at least this size
        before the main loop (0 disables the step).
    max_iterations:
        Safety cap on the number of iterations.
    """

    def __init__(
        self,
        oneshot: OneShotAlgorithm,
        strategy: LimitStrategy,
        min_slice_size: int = 0,
        max_iterations: int = 30,
    ) -> None:
        self.oneshot = oneshot
        self.strategy = strategy
        self.min_slice_size = check_non_negative_int(min_slice_size, "min_slice_size")
        self.max_iterations = check_positive_int(max_iterations, "max_iterations")

    # -- the algorithm -----------------------------------------------------------
    def run(
        self,
        sliced: SlicedDataset,
        budget: float,
        source: DataSource,
        cost_model: CostModel | None = None,
        on_iteration: Callable[[IterationRecord], None] | None = None,
    ) -> TuningResult:
        """Run Algorithm 1, mutating ``sliced`` as data is acquired.

        Parameters
        ----------
        sliced:
            The slices and their data; acquired examples are appended to it.
        budget:
            The total data acquisition budget ``B``.
        source:
            Where acquired examples come from.
        cost_model:
            Per-slice cost model; defaults to the costs on the slices.
            Only delivered examples are charged, so an exhausted pool or a
            lossy crowdsourcing campaign never debits phantom examples.
        on_iteration:
            Optional callback invoked with each :class:`IterationRecord`.
        """
        cost_model = cost_model or TableCost(
            {name: sliced[name].cost for name in sliced.names}
        )
        ledger = BudgetLedger(total=float(budget))
        result = TuningResult(
            method=self.strategy.name, lam=self.oneshot.lam, budget=float(budget)
        )
        result.total_acquired = {name: 0 for name in sliced.names}

        limit = self.strategy.initial()
        self._ensure_minimum_sizes(sliced, source, cost_model, ledger, result)
        current_ratio = imbalance_ratio(sliced.sizes())

        for iteration in range(1, self.max_iterations + 1):
            if ledger.exhausted:
                break
            cheapest = min(cost_model.cost(name) for name in sliced.names)
            if ledger.remaining < cheapest:
                break

            plan, curves = self.oneshot.plan(
                sliced, ledger.remaining, cost_model=cost_model
            )
            requested = dict(plan.counts)
            if plan.is_empty():
                break

            # Cap the change of the imbalance ratio at the current limit T.
            requested, after_ratio = cap_change_by_limit(
                sliced.sizes(), sliced.names, requested, current_ratio, limit
            )

            record = IterationRecord(
                iteration=iteration,
                requested=dict(requested),
                limit=limit,
                imbalance_before=current_ratio,
                imbalance_after=after_ratio,
                curve_parameters={
                    name: (curve.b, curve.a) for name, curve in curves.items()
                },
            )

            acquired_total = self._acquire(
                sliced, source, cost_model, ledger, requested, record, result
            )
            result.iterations.append(record)
            if on_iteration is not None:
                on_iteration(record)
            if acquired_total == 0:
                # The capped plan bought nothing (e.g. rounding to zero);
                # growing T may unblock the next iteration, otherwise stop.
                next_limit = self.strategy.increase(limit)
                if next_limit <= limit:
                    break
                limit = next_limit
                continue

            limit = self.strategy.increase(limit)
            current_ratio = imbalance_ratio(sliced.sizes())

        result.spent = ledger.spent
        return result

    # -- helpers --------------------------------------------------------------------
    def _ensure_minimum_sizes(
        self,
        sliced: SlicedDataset,
        source: DataSource,
        cost_model: CostModel,
        ledger: BudgetLedger,
        result: TuningResult,
    ) -> None:
        """Steps 3-6 of Algorithm 1: top every slice up to the minimum size L."""
        if self.min_slice_size <= 0:
            return
        record = IterationRecord(iteration=0, limit=self.strategy.initial())
        record.imbalance_before = imbalance_ratio(sliced.sizes())
        spent_before = ledger.spent
        delivered_by_slice = top_up_minimum_sizes(
            sliced, source, cost_model, ledger, self.min_slice_size, record
        )
        for name, delivered in delivered_by_slice.items():
            result.total_acquired[name] = (
                result.total_acquired.get(name, 0) + delivered
            )
        record.imbalance_after = imbalance_ratio(sliced.sizes())
        record.spent = ledger.spent - spent_before
        if delivered_by_slice:
            result.iterations.append(record)

    def _acquire(
        self,
        sliced: SlicedDataset,
        source: DataSource,
        cost_model: CostModel,
        ledger: BudgetLedger,
        requested: dict[str, int],
        record: IterationRecord,
        result: TuningResult,
    ) -> int:
        """Acquire one batch; returns the total number of delivered examples."""
        spent_before = ledger.spent
        total = 0
        for name, count in requested.items():
            if count <= 0:
                continue
            unit_cost = cost_model.cost(name)
            affordable = min(count, ledger.affordable_count(unit_cost))
            if affordable <= 0:
                continue
            total += self._acquire_one(
                sliced, source, cost_model, ledger, name, affordable, record, result
            )
        record.spent = ledger.spent - spent_before
        return total

    def _acquire_one(
        self,
        sliced: SlicedDataset,
        source: DataSource,
        cost_model: CostModel,
        ledger: BudgetLedger,
        name: str,
        count: int,
        record: IterationRecord,
        result: TuningResult,
    ) -> int:
        """Acquire ``count`` examples for one slice, updating all bookkeeping."""
        delivered = acquire_batch(sliced, source, cost_model, ledger, name, count)
        record.acquired[name] = record.acquired.get(name, 0) + delivered
        result.total_acquired[name] = (
            result.total_acquired.get(name, 0) + delivered
        )
        return delivered


class ScheduledIterativeStrategy(AcquisitionStrategy):
    """Algorithm 1 as a pluggable strategy.

    Each proposal re-runs One-shot with the remaining budget and caps the
    allocation so the imbalance ratio changes by at most the current limit
    ``T``; :meth:`observe` then grows ``T`` according to the wrapped
    Conservative / Moderate / Aggressive schedule.

    Parameters
    ----------
    schedule:
        The :class:`~repro.core.strategies.LimitStrategy` growing ``T``.
    """

    is_iterative = True
    uses_lam = True
    enforce_min_slice_size = True

    def __init__(self, schedule: LimitStrategy) -> None:
        self.schedule = schedule
        self.name = schedule.name
        self._limit = schedule.initial()
        self._current_ratio: float | None = None

    # -- lifecycle ---------------------------------------------------------------
    def begin(self, state: TunerState) -> None:
        self._limit = self.schedule.initial()
        self._current_ratio = None

    def propose(
        self, state: TunerState, budget: float, lam: float
    ) -> AcquisitionPlan | None:
        if self._current_ratio is None:
            # First proposal: measure the post-top-up imbalance ratio.
            self._current_ratio = imbalance_ratio(state.sliced.sizes())

        algorithm = OneShotAlgorithm(state.estimator, lam=lam)
        plan, curves = algorithm.plan(
            state.sliced, budget, cost_model=state.cost_model
        )
        if plan.is_empty():
            return None

        # Cap the change of the imbalance ratio at the current limit T.
        order = state.sliced.names
        requested, after_ratio = cap_change_by_limit(
            state.sliced.sizes(),
            order,
            dict(plan.counts),
            self._current_ratio,
            self._limit,
            cache=None if state.executor is None else state.executor.cache,
        )

        costs = np.array([state.cost_model.cost(name) for name in order])
        return AcquisitionPlan(
            counts=requested,
            expected_cost=float(
                np.dot(costs, [requested[name] for name in order])
            ),
            solver=plan.solver,
            limit=self._limit,
            curve_parameters={
                name: (curve.b, curve.a) for name, curve in curves.items()
            },
            imbalance_before=self._current_ratio,
            imbalance_after=float(after_ratio),
        )

    def observe(self, state: TunerState, record: IterationRecord) -> bool:
        if sum(record.acquired.values()) == 0:
            # The capped plan bought nothing (e.g. rounding to zero);
            # growing T may unblock the next iteration, otherwise stop.
            next_limit = self.schedule.increase(self._limit)
            if next_limit <= self._limit:
                return False
            self._limit = next_limit
            return True
        self._limit = self.schedule.increase(self._limit)
        self._current_ratio = imbalance_ratio(state.sliced.sizes())
        return True

    @property
    def current_limit(self) -> float:
        return self._limit

    # -- checkpointing -----------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "limit": self._limit,
            "current_ratio": self._current_ratio,
            "schedule": {
                "initial_limit": self.schedule.initial_limit,
                "step": getattr(self.schedule, "step", None),
                "factor": getattr(self.schedule, "factor", None),
            },
        }

    def load_state_dict(self, state) -> None:
        self._limit = float(state["limit"])
        ratio = state.get("current_ratio")
        self._current_ratio = None if ratio is None else float(ratio)
        schedule = state.get("schedule", {})
        self.schedule.initial_limit = float(
            schedule.get("initial_limit", self.schedule.initial_limit)
        )
        for knob in ("step", "factor"):
            if schedule.get(knob) is not None and hasattr(self.schedule, knob):
                setattr(self.schedule, knob, float(schedule[knob]))


@register_strategy(
    "conservative",
    description="iterative updates; T stays constant (most iterations)",
)
def _conservative_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("conservative", initial_limit))


@register_strategy(
    "moderate",
    description="iterative updates; T grows by a constant per iteration",
)
def _moderate_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("moderate", initial_limit))


@register_strategy(
    "aggressive",
    description="iterative updates; T doubles per iteration (fewest iterations)",
)
def _aggressive_strategy(initial_limit: float = 1.0) -> ScheduledIterativeStrategy:
    return ScheduledIterativeStrategy(make_strategy("aggressive", initial_limit))
