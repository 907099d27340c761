"""Tests for repro.ml.mlp."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import Dataset
from repro.ml.mlp import MLPClassifier
from repro.ml.train import Trainer, TrainingConfig
from repro.utils.exceptions import ConfigurationError


def xor_dataset(n: int = 200, seed: int = 0) -> Dataset:
    """The XOR problem: not linearly separable, solvable by a small MLP."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(-1.0, 1.0, size=(n, 2))
    labels = ((features[:, 0] > 0) ^ (features[:, 1] > 0)).astype(int)
    features = features + rng.normal(0, 0.05, size=features.shape)
    return Dataset(features, labels)


class TestMLPStructure:
    def test_parameter_count(self):
        model = MLPClassifier(n_classes=3, hidden_sizes=(5, 4), random_state=0)
        model.initialize(7)
        params = model.parameters()
        # 3 layers -> 3 weight matrices + 3 bias vectors.
        assert len(params) == 6
        assert params[0].shape == (7, 5)
        assert params[2].shape == (5, 4)
        assert params[4].shape == (4, 3)

    def test_no_hidden_layers_is_linear(self):
        model = MLPClassifier(n_classes=2, hidden_sizes=(), random_state=0)
        model.initialize(3)
        assert len(model.parameters()) == 2

    def test_invalid_hidden_size_rejected(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(n_classes=2, hidden_sizes=(0,))

    def test_requires_initialization(self):
        with pytest.raises(ConfigurationError):
            MLPClassifier(n_classes=2).predict(np.zeros((1, 2)))

    def test_probabilities_sum_to_one(self):
        model = MLPClassifier(n_classes=5, hidden_sizes=(8,), random_state=0)
        model.initialize(4)
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_clone_preserves_architecture(self):
        model = MLPClassifier(n_classes=4, hidden_sizes=(6, 3), l2=0.01)
        clone = model.clone()
        assert clone.hidden_sizes == (6, 3) and clone.n_classes == 4
        assert not clone.is_initialized


class TestMLPGradients:
    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        model = MLPClassifier(n_classes=2, hidden_sizes=(4,), l2=0.0, random_state=0)
        model.initialize(3)
        features = rng.normal(size=(10, 3))
        labels = rng.integers(0, 2, size=10)
        dataset = Dataset(features, labels)
        losses, grads = model.losses_and_gradients(features, labels)
        assert losses.mean() == pytest.approx(model.loss(dataset))
        eps = 1e-6
        # Check one entry of the first weight matrix and one of the last bias.
        for param_index, coords in [(0, (1, 2)), (3, (0,))]:
            param = model.parameters()[param_index]
            param[coords] += eps
            loss_plus = model.loss(dataset)
            param[coords] -= 2 * eps
            loss_minus = model.loss(dataset)
            param[coords] += eps
            numeric = (loss_plus - loss_minus) / (2 * eps)
            assert grads[param_index][coords] == pytest.approx(numeric, abs=1e-4)


class TestMLPLearning:
    def test_solves_xor(self):
        dataset = xor_dataset()
        model = MLPClassifier(n_classes=2, hidden_sizes=(16,), random_state=0)
        config = TrainingConfig(epochs=150, batch_size=32, learning_rate=0.05)
        Trainer(config=config, random_state=0).fit(model, dataset)
        accuracy = np.mean(model.predict(dataset.features) == dataset.labels)
        assert accuracy > 0.9

    def test_loss_decreases_with_training(self, separable_dataset):
        model = MLPClassifier(n_classes=2, hidden_sizes=(8,), random_state=0)
        initial_model = MLPClassifier(n_classes=2, hidden_sizes=(8,), random_state=0)
        initial_model.initialize(separable_dataset.n_features)
        initial_loss = initial_model.loss(separable_dataset)
        Trainer(
            config=TrainingConfig(epochs=30, batch_size=16, learning_rate=0.05),
            random_state=0,
        ).fit(model, separable_dataset)
        assert model.loss(separable_dataset) < initial_loss
