"""Grid-scoped training dedup in ``compare_methods`` and ``budget_sweep``.

Every cell of one grid shares one in-memory result cache, so jobs repeated
across cells (the initial evaluations, the first estimate waves) train
once.  The cache must never change a result, and must never outlive the
call that created it.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.core import tuner as tuner_module
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    MethodAggregate,
    budget_sweep,
    compare_methods,
    run_method,
)
from repro.telemetry import MetricsRegistry, set_registry


@pytest.fixture(scope="module")
def grid_config() -> ExperimentConfig:
    """Imbalanced slices, so the iterative methods take several steps."""
    return ExperimentConfig(
        dataset="adult_like",
        scenario="bad_for_uniform",
        budget=150.0,
        methods=("moderate", "oneshot", "conservative"),
        lam=1.0,
        trials=2,
        validation_size=40,
        curve_points=3,
        curve_repeats=1,
        epochs=6,
        seed=3,
        extra={"base_size": 40},
    )


def counted_run(fn, *args, **kwargs):
    """Run ``fn`` under a fresh metrics registry; return (result, counters)."""
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        value = fn(*args, **kwargs)
    finally:
        set_registry(previous)
    counters = {
        name: registry.counter(name).value
        for name in ("engine.jobs", "engine.cache_hits", "engine.cache_misses")
    }
    return value, counters


class TestCompareMethodsDedup:
    def test_aggregates_equal_uncached_cells(self, grid_config):
        aggregates, counters = counted_run(compare_methods, grid_config)
        assert counters["engine.cache_hits"] > 0
        assert aggregates["conservative"].iterations_mean > 2
        for method in ("original", *grid_config.methods):
            outcomes = [
                run_method(grid_config, method, trial)
                for trial in range(grid_config.trials)
            ]
            expected = MethodAggregate.from_outcomes(outcomes)
            assert dataclasses.asdict(aggregates[method]) == dataclasses.asdict(
                expected
            )

    def test_consecutive_calls_share_no_cache(self, grid_config):
        first, first_counts = counted_run(compare_methods, grid_config)
        second, second_counts = counted_run(compare_methods, grid_config)
        assert first_counts == second_counts
        assert first_counts["engine.cache_hits"] > 0
        assert {m: dataclasses.asdict(a) for m, a in first.items()} == {
            m: dataclasses.asdict(a) for m, a in second.items()
        }

    def test_budget_sweep_equals_per_budget_compare(self, grid_config):
        budgets = [150.0, 300.0]
        series, sweep_counts = counted_run(budget_sweep, grid_config, budgets)
        per_budget_hits = 0
        for position, budget in enumerate(budgets):
            config = dataclasses.replace(grid_config, budget=budget)
            aggregates, counts = counted_run(
                compare_methods, config, include_original=False
            )
            per_budget_hits += counts["engine.cache_hits"]
            for method in grid_config.methods:
                aggregate = aggregates[method]
                assert series[method][position] == (
                    budget,
                    aggregate.loss_mean,
                    aggregate.avg_eer_mean,
                )
        # The shared cache also serves the jobs repeated across budgets.
        assert sweep_counts["engine.cache_hits"] > per_budget_hits


def test_finished_run_frees_its_tuner_without_the_cycle_collector(
    grid_config, monkeypatch
):
    """A finished run leaves no reference cycle through its tuner."""
    tuners: list[weakref.ref] = []

    class TrackedTuner(tuner_module.SliceTuner):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tuners.append(weakref.ref(self))

    monkeypatch.setattr(runner, "SliceTuner", TrackedTuner)
    gc.collect()
    gc.disable()
    try:
        run_method(grid_config, "moderate", trial=0)
        assert len(tuners) == 1
        assert tuners[0]() is None
    finally:
        gc.enable()
