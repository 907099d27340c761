"""Experiment configuration.

The paper's experiments differ along a small number of axes: the dataset, the
initial slice sizes (equal, exponential, or pathological), the budget, the
methods compared, lambda, and the number of trials.  :class:`ExperimentConfig`
captures those, plus speed knobs (training epochs, validation-set size,
learning-curve points) so the same harness scales from quick unit tests to
the full benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.utils.exceptions import ConfigurationError

# The config classes (and with them numpy) are imported where a config is
# built, so the CLI parser can read SOURCE_KINDS without loading numpy.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.curves.estimator import CurveEstimationConfig
    from repro.ml.train import TrainingConfig


#: Source kinds :func:`~repro.experiments.runner.build_sources` understands
#: (CLI ``--source`` choices); re-exported by :mod:`repro.experiments.runner`.
SOURCE_KINDS = ("generator", "pool", "mixed", "flaky", "crowdsourcing")


def fast_training_config(epochs: int = 40, batch_size: int = 32) -> TrainingConfig:
    """A training configuration tuned for the benchmark harness.

    Adam with a moderate learning rate converges on the synthetic substrates
    well within ``epochs`` passes; the configuration is fixed once per
    experiment exactly like the paper fixes hyperparameters per dataset.
    """
    from repro.ml.train import TrainingConfig

    return TrainingConfig(
        epochs=epochs,
        batch_size=batch_size,
        optimizer="adam",
        learning_rate=0.02,
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one experiment (one table row group or figure).

    Attributes
    ----------
    dataset:
        Registered dataset name (``"fashion_like"``, ``"mixed_like"``,
        ``"faces_like"``, ``"adult_like"``).
    scenario:
        Scenario name (see :mod:`repro.experiments.scenarios`).
    budget:
        Data acquisition budget ``B``.
    methods:
        The methods to compare.
    lam:
        Loss/unfairness trade-off weight.
    trials:
        Number of independently-seeded repetitions; reported values are means
        over trials, as in the paper.
    validation_size:
        Held-out validation examples per slice.
    min_slice_size:
        The paper's ``L`` for the iterative algorithms.
    curve_points / curve_repeats:
        Learning-curve estimation budget (``K`` and number of averaged
        curves).
    epochs:
        Training epochs per model fit.
    seed:
        Base random seed; trial ``t`` uses ``seed + t``.
    """

    dataset: str = "fashion_like"
    scenario: str = "basic"
    budget: float = 2000.0
    methods: tuple[str, ...] = ("uniform", "water_filling", "moderate")
    lam: float = 1.0
    trials: int = 3
    validation_size: int = 200
    min_slice_size: int = 0
    curve_points: int = 6
    curve_repeats: int = 1
    epochs: int = 40
    seed: int = 0
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ConfigurationError(f"budget must be >= 0, got {self.budget}")
        if self.trials <= 0:
            raise ConfigurationError(f"trials must be positive, got {self.trials}")
        if not self.methods:
            raise ConfigurationError("at least one method must be configured")

    def training_config(self) -> TrainingConfig:
        """The fixed training configuration for this experiment."""
        return fast_training_config(epochs=self.epochs)

    def curve_config(self, strategy: str = "amortized") -> CurveEstimationConfig:
        """The learning-curve estimation configuration for this experiment."""
        from repro.curves.estimator import CurveEstimationConfig

        return CurveEstimationConfig(
            n_points=self.curve_points,
            n_repeats=self.curve_repeats,
            strategy=strategy,
        )
