"""Tests for repro.ml.linear."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import Dataset
from repro.ml.linear import LogisticRegression, SoftmaxRegression
from repro.ml.train import Trainer
from repro.utils.exceptions import ConfigurationError


class TestSoftmaxRegression:
    def test_requires_initialization(self):
        model = SoftmaxRegression(n_classes=3)
        with pytest.raises(ConfigurationError):
            model.predict_proba(np.zeros((1, 2)))

    def test_probabilities_sum_to_one(self):
        model = SoftmaxRegression(n_classes=4, random_state=0)
        model.initialize(5)
        probs = model.predict_proba(np.random.default_rng(0).normal(size=(7, 5)))
        assert probs.shape == (7, 4)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_learns_separable_data(self, separable_dataset, fast_training):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        Trainer(config=fast_training, random_state=0).fit(model, separable_dataset)
        predictions = model.predict(separable_dataset.features)
        accuracy = np.mean(predictions == separable_dataset.labels)
        assert accuracy > 0.95
        assert model.loss(separable_dataset) < 0.3

    def test_gradients_shapes(self):
        model = SoftmaxRegression(n_classes=3, random_state=0)
        model.initialize(4)
        losses, grads = model.losses_and_gradients(
            np.zeros((6, 4)), np.zeros(6, dtype=int)
        )
        assert losses.shape == (6,)
        assert grads[0].shape == (4, 3)
        assert grads[1].shape == (3,)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        model = SoftmaxRegression(n_classes=3, l2=0.0, random_state=0)
        model.initialize(4)
        features = rng.normal(size=(8, 4))
        labels = rng.integers(0, 3, size=8)
        dataset = Dataset(features, labels)
        losses, (grad_w, _) = model.losses_and_gradients(features, labels)
        assert losses.mean() == pytest.approx(model.loss(dataset))
        eps = 1e-6
        i, j = 2, 1
        model.weights[i, j] += eps
        loss_plus = model.loss(dataset)
        model.weights[i, j] -= 2 * eps
        loss_minus = model.loss(dataset)
        model.weights[i, j] += eps
        numeric = (loss_plus - loss_minus) / (2 * eps)
        assert grad_w[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_loss_on_empty_dataset_is_zero(self):
        model = SoftmaxRegression(n_classes=2, random_state=0)
        model.initialize(3)
        assert model.loss(Dataset.empty(3)) == 0.0

    def test_clone_is_untrained_copy(self):
        model = SoftmaxRegression(n_classes=3, l2=0.01, random_state=0)
        model.initialize(2)
        clone = model.clone()
        assert clone.n_classes == 3 and clone.l2 == 0.01
        assert not clone.is_initialized

    def test_invalid_n_classes(self):
        with pytest.raises(ConfigurationError):
            SoftmaxRegression(n_classes=0)


class TestLogisticRegression:
    def test_fit_and_predict_separable(self, separable_dataset):
        model = LogisticRegression(random_state=0).fit(separable_dataset, epochs=150)
        accuracy = np.mean(model.predict(separable_dataset.features) == separable_dataset.labels)
        assert accuracy > 0.95
        assert model.loss(separable_dataset) < 0.3

    def test_predict_proba_two_columns(self, separable_dataset):
        model = LogisticRegression(random_state=0).fit(separable_dataset, epochs=50)
        probs = model.predict_proba(separable_dataset.features)
        assert probs.shape == (len(separable_dataset), 2)
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_rejects_non_binary_labels(self):
        dataset = Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ConfigurationError):
            LogisticRegression().fit(dataset)

    def test_rejects_empty_dataset(self):
        with pytest.raises(ConfigurationError):
            LogisticRegression().fit(Dataset.empty(2))

    def test_requires_initialization_for_inference(self):
        with pytest.raises(ConfigurationError):
            LogisticRegression().decision_function(np.zeros((1, 2)))
