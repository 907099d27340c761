"""Multi-layer perceptron classifier.

This is the stand-in for the paper's small convolutional networks (2-3 hidden
layers) and, with more/wider layers, for the ResNet-18 comparison in
Appendix B.  The implementation is a straightforward fully-connected network
with ReLU activations and a softmax output trained by mini-batch gradient
descent through the shared :class:`repro.ml.train.Trainer`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.losses import (
    cross_entropy_gradient,
    cross_entropy_loss,
    example_log_losses,
    softmax,
)
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_non_negative, check_positive_int


class MLPClassifier:
    """Fully connected ReLU network with a softmax output layer.

    Parameters
    ----------
    n_classes:
        Number of output classes.
    hidden_sizes:
        Widths of the hidden layers, e.g. ``(32, 16)``.  An empty tuple makes
        the model equivalent to softmax regression.
    l2:
        L2 regularization applied to all weight matrices.
    random_state:
        Controls weight initialization.
    """

    def __init__(
        self,
        n_classes: int,
        hidden_sizes: Sequence[int] = (32,),
        l2: float = 1e-4,
        random_state: RandomState = None,
    ) -> None:
        self.n_classes = check_positive_int(n_classes, "n_classes")
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        if any(h <= 0 for h in self.hidden_sizes):
            raise ConfigurationError(
                f"hidden_sizes must all be positive, got {self.hidden_sizes}"
            )
        self.l2 = check_non_negative(l2, "l2")
        self._rng = as_generator(random_state)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []

    # -- parameter plumbing ---------------------------------------------------
    def initialize(self, n_features: int) -> None:
        """(Re-)initialize all layers with He-style scaling."""
        sizes = [int(n_features), *self.hidden_sizes, self.n_classes]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / max(fan_in, 1))
            self.weights.append(
                self._rng.normal(0.0, scale, size=(fan_in, fan_out))
            )
            self.biases.append(np.zeros(fan_out, dtype=np.float64))

    @property
    def is_initialized(self) -> bool:
        """Whether the layer parameters exist."""
        return bool(self.weights)

    def parameters(self) -> list[np.ndarray]:
        """Return all trainable arrays (weights then biases, per layer)."""
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        params: list[np.ndarray] = []
        for weight, bias in zip(self.weights, self.biases):
            params.append(weight)
            params.append(bias)
        return params

    # -- forward / backward ---------------------------------------------------
    def _forward(self, features: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
        """Run the network, returning hidden activations and output logits."""
        activations = [np.asarray(features, dtype=np.float64)]
        current = activations[0]
        for weight, bias in zip(self.weights[:-1], self.biases[:-1]):
            current = np.maximum(current @ weight + bias, 0.0)
            activations.append(current)
        logits = current @ self.weights[-1] + self.biases[-1]
        return activations, logits

    def losses_and_gradients(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-example log losses, and the regularized loss backpropagated."""
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        activations, logits = self._forward(features)
        probabilities = softmax(logits)
        delta = cross_entropy_gradient(probabilities, labels)

        weight_grads: list[np.ndarray] = [np.empty(0)] * len(self.weights)
        bias_grads: list[np.ndarray] = [np.empty(0)] * len(self.biases)
        for layer in range(len(self.weights) - 1, -1, -1):
            weight_grads[layer] = (
                activations[layer].T @ delta + self.l2 * self.weights[layer]
            )
            bias_grads[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = delta @ self.weights[layer].T
                delta = delta * (activations[layer] > 0.0)

        grads: list[np.ndarray] = []
        for wg, bg in zip(weight_grads, bias_grads):
            grads.append(wg)
            grads.append(bg)
        return example_log_losses(probabilities, labels), grads

    # -- inference -------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Return raw class logits."""
        if not self.is_initialized:
            raise ConfigurationError("model is not initialized")
        _, logits = self._forward(features)
        return logits

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Return class probabilities of shape ``(n, n_classes)``."""
        return softmax(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Return the most likely class index per row."""
        return np.argmax(self.predict_proba(features), axis=1)

    def loss(self, dataset: Dataset) -> float:
        """Mean log loss of the model on ``dataset``."""
        if len(dataset) == 0:
            return 0.0
        return cross_entropy_loss(self.predict_proba(dataset.features), dataset.labels)

    def clone(self) -> "MLPClassifier":
        """Return an untrained copy with the same hyperparameters."""
        return MLPClassifier(
            n_classes=self.n_classes,
            hidden_sizes=self.hidden_sizes,
            l2=self.l2,
            random_state=self._rng.integers(0, 2**31 - 1),
        )
