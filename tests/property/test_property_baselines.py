"""Property-based tests for the baseline allocation strategies."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import (
    proportional_allocation,
    uniform_allocation,
    water_filling_allocation,
)
from repro.core.imbalance import imbalance_ratio


@st.composite
def allocation_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    sizes = draw(
        st.lists(st.integers(min_value=1, max_value=1000), min_size=n, max_size=n)
    )
    costs = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    budget = draw(st.floats(min_value=0.0, max_value=3000.0))
    return np.array(sizes), np.array(costs), budget


ALL_BASELINES = [uniform_allocation, water_filling_allocation, proportional_allocation]


class TestBaselineInvariants:
    @given(inputs=allocation_inputs())
    @settings(max_examples=40, deadline=None)
    def test_never_exceed_budget(self, inputs):
        sizes, costs, budget = inputs
        for baseline in ALL_BASELINES:
            allocation = baseline(sizes, budget, costs)
            assert np.all(allocation >= 0)
            assert float(np.dot(costs, allocation)) <= budget + 1e-6

    @given(inputs=allocation_inputs())
    @settings(max_examples=40, deadline=None)
    def test_spend_nearly_everything(self, inputs):
        sizes, costs, budget = inputs
        for baseline in ALL_BASELINES:
            allocation = baseline(sizes, budget, costs)
            spent = float(np.dot(costs, allocation))
            assert spent >= budget - float(costs.max()) - 1e-6

    @given(inputs=allocation_inputs())
    @settings(max_examples=30, deadline=None)
    @example(inputs=(np.array([1, 1]), np.array([0.5, 2.0]), 2.0))
    def test_water_filling_does_not_worsen_imbalance_beyond_granularity(self, inputs):
        # Water filling levels slice sizes, so the imbalance ratio should not
        # grow except for the granularity of spending the leftover budget
        # (relevant only for tiny slices).  Flooring the water level leaves
        # less than sum(costs) unspent, and the leftover step buys whatever
        # still fits, so one slice can gain up to sum(costs) / min(costs)
        # examples: with sizes [1, 1], costs [0.5, 2.0] and budget 2.0 the
        # cheap slice gets all 4 and the ratio goes 1 -> 5.  Spending the
        # whole budget is the allocator's contract, so the bound counts
        # costs; a unit-cost bound of (1 + n) / min(sizes) is too tight.
        sizes, costs, budget = inputs
        allocation = water_filling_allocation(sizes, budget, costs)
        before = imbalance_ratio(sizes)
        after = imbalance_ratio(sizes + allocation)
        granularity = (1.0 + costs.sum() / costs.min()) / float(sizes.min())
        assert after <= before + granularity + 1e-9

    @given(inputs=allocation_inputs())
    @settings(max_examples=30, deadline=None)
    def test_uniform_counts_are_nearly_equal_with_unit_costs(self, inputs):
        sizes, _, budget = inputs
        allocation = uniform_allocation(sizes, budget, None)
        if len(allocation) > 1:
            assert allocation.max() - allocation.min() <= max(1, len(sizes))
