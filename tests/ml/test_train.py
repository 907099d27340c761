"""Tests for repro.ml.train."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.engine.factories import MLPFactory, get_model_factory
from repro.engine.job import TrainingJob, run_training_wave
from repro.ml.data import Dataset
from repro.ml.linear import SoftmaxRegression
from repro.ml.mlp import MLPClassifier
from repro.ml.train import Trainer, TrainingConfig, train_model
from repro.utils.exceptions import ConfigurationError
from tests.ml.test_lockstep import PerBatchSoftmax


class TestTrainingConfig:
    def test_defaults_are_valid(self):
        config = TrainingConfig()
        assert config.epochs > 0 and config.batch_size > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"early_stopping_patience": -1},
            {"validation_fraction": 1.0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainingConfig(**kwargs)


class TestTrainer:
    def test_returns_result_with_losses(self, separable_dataset, fast_training):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, separable_dataset
        )
        assert result.epochs_run == fast_training.epochs
        assert len(result.train_losses) == result.epochs_run
        assert result.final_train_loss < result.train_losses[0]

    def test_training_is_deterministic_given_seeds(self, separable_dataset, fast_training):
        losses = []
        for _ in range(2):
            model = SoftmaxRegression(n_classes=2, random_state=5)
            result = Trainer(config=fast_training, random_state=9).fit(
                model, separable_dataset
            )
            losses.append(result.final_train_loss)
        assert losses[0] == pytest.approx(losses[1])

    def test_empty_dataset_rejected(self, fast_training):
        with pytest.raises(ConfigurationError):
            Trainer(config=fast_training).fit(
                SoftmaxRegression(n_classes=2), Dataset.empty(3)
            )

    def test_validation_losses_tracked(self, separable_dataset, fast_training):
        train = separable_dataset.take(80)
        validation = separable_dataset.subset(np.arange(80, len(separable_dataset)))
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, train, validation
        )
        assert len(result.validation_losses) == result.epochs_run

    def test_early_stopping_stops_before_max_epochs(self):
        # Random labels carry no signal, so validation loss stops improving
        # almost immediately and the patience criterion must kick in.
        rng = np.random.default_rng(0)
        train = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 2, size=60))
        validation = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 2, size=40))
        config = TrainingConfig(
            epochs=200,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early
        assert result.epochs_run < 200

    def test_internal_validation_split_used(self, separable_dataset):
        config = TrainingConfig(
            epochs=50,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
            validation_fraction=0.25,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert len(result.validation_losses) > 0

    def test_batch_size_larger_than_dataset(self, separable_dataset):
        config = TrainingConfig(epochs=5, batch_size=10_000, learning_rate=0.1)
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert result.epochs_run == 5

    def test_train_model_convenience_wrapper(self, separable_dataset, fast_training):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = train_model(
            model, separable_dataset, config=fast_training, random_state=0
        )
        assert result.epochs_run == fast_training.epochs


class TestRestoreBest:
    """The ``restore_best`` early-stopping flag (off by default)."""

    @staticmethod
    def _noisy_split(rng):
        train = Dataset(rng.normal(size=(60, 4)), rng.integers(0, 2, size=60))
        validation = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 2, size=40))
        return train, validation

    def test_default_keeps_post_patience_weights(self, rng):
        train, validation = self._noisy_split(rng)
        config = TrainingConfig(
            epochs=200, batch_size=16, learning_rate=0.1, early_stopping_patience=3
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early and not result.restored_best
        # The final weights correspond to the *last* epoch, not the best one.
        assert model.loss(validation) == pytest.approx(result.validation_losses[-1])

    def test_restore_best_restores_best_epoch_parameters(self, rng):
        train, validation = self._noisy_split(rng)
        config = TrainingConfig(
            epochs=200,
            batch_size=16,
            learning_rate=0.1,
            early_stopping_patience=3,
            restore_best=True,
        )
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, train, validation)
        assert result.stopped_early and result.restored_best
        assert result.best_epoch is not None
        best_loss = min(result.validation_losses)
        assert result.validation_losses[result.best_epoch - 1] == pytest.approx(best_loss)
        assert model.loss(validation) == pytest.approx(best_loss)
        assert model.loss(validation) <= result.validation_losses[-1]

    def test_best_epoch_tracked_without_restore(self, separable_dataset, fast_training):
        train = separable_dataset.take(80)
        validation = separable_dataset.subset(np.arange(80, len(separable_dataset)))
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=fast_training, random_state=0).fit(
            model, train, validation
        )
        assert result.best_epoch is not None and not result.restored_best

    def test_restore_best_without_early_stopping_is_inert(self, separable_dataset):
        config = TrainingConfig(epochs=5, batch_size=16, restore_best=True)
        model = SoftmaxRegression(n_classes=2, random_state=0)
        result = Trainer(config=config, random_state=0).fit(model, separable_dataset)
        assert not result.restored_best


@pytest.fixture
def loss_calls(monkeypatch) -> list[Dataset]:
    """Every dataset a model's ``loss`` is evaluated on, in call order."""
    calls: list[Dataset] = []
    for cls in (SoftmaxRegression, MLPClassifier):

        def counting(self, dataset, _loss=cls.loss):
            calls.append(dataset)
            return _loss(self, dataset)

        monkeypatch.setattr(cls, "loss", counting)
    return calls


class TestNoTrainingLossPass:
    """Training evaluates no loss except the validation loss it stops on."""

    @pytest.mark.parametrize(
        "model, optimizer",
        [
            (SoftmaxRegression(2, random_state=0), "adam"),  # lockstep, K = 1
            (PerBatchSoftmax(2, random_state=0), "adam"),
            (MLPClassifier(2, hidden_sizes=(4,), random_state=0), "adam"),
            (SoftmaxRegression(2, random_state=0), "sgd"),
        ],
        ids=["lockstep", "per-batch", "mlp", "sgd"],
    )
    def test_fit_without_validation_evaluates_nothing(
        self, separable_dataset, loss_calls, model, optimizer
    ):
        config = TrainingConfig(epochs=4, batch_size=16, optimizer=optimizer)
        result = Trainer(config, random_state=0).fit(model, separable_dataset)
        assert result.epochs_run == 4
        assert loss_calls == []

    def test_lockstep_wave_evaluates_nothing(self, separable_dataset, loss_calls):
        jobs = [
            TrainingJob(
                train=separable_dataset.take(n),
                n_classes=2,
                seed=seed,
                trainer_config=TrainingConfig(epochs=3, batch_size=16),
                model_factory=get_model_factory("softmax"),
                factory_name="softmax",
            )
            for seed, n in enumerate((40, 70, 120))
        ]
        results = run_training_wave(jobs)
        assert [result.training.epochs_run for result in results] == [3, 3, 3]
        assert loss_calls == []

    @pytest.mark.parametrize(
        "factory",
        [get_model_factory("softmax"), MLPFactory(hidden_sizes=(4,))],
        ids=["softmax", "mlp"],
    )
    def test_validation_is_the_only_loss_evaluated(
        self, separable_dataset, loss_calls, factory
    ):
        train = separable_dataset.take(80)
        validation = separable_dataset.subset(np.arange(80, len(separable_dataset)))
        config = TrainingConfig(epochs=6, batch_size=16, early_stopping_patience=2)
        result = Trainer(config, random_state=0).fit(factory(2), train, validation)
        assert len(loss_calls) == result.epochs_run
        assert all(dataset is validation for dataset in loss_calls)


class TestEpochTrainingLoss:
    """An epoch's training loss scores each example at the step that used it."""

    @pytest.mark.parametrize(
        "model",
        [
            SoftmaxRegression(2, random_state=0),  # lockstep, K = 1
            PerBatchSoftmax(2, random_state=0),
            MLPClassifier(2, hidden_sizes=(4,), random_state=0),
        ],
        ids=["lockstep", "per-batch", "mlp"],
    )
    def test_one_full_batch_scores_the_initial_model(self, separable_dataset, model):
        # One epoch of one batch takes a single step, so every example is
        # scored by the initial parameters.
        train = separable_dataset.take(40)
        initial = copy.deepcopy(model)
        initial.initialize(train.n_features)
        config = TrainingConfig(epochs=1, batch_size=len(train))
        result = Trainer(config, random_state=0).fit(model, train)
        assert result.train_losses == [pytest.approx(initial.loss(train), rel=1e-12)]
