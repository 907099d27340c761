"""Shared mini-batch training loop.

Every model training in the reproduction — the hundreds of trainings behind
learning-curve estimation, the final evaluation trainings, the influence
experiments — goes through :class:`Trainer` so they all use the same
hyperparameters, batching, and early-stopping behaviour, exactly like the
paper fixes hyperparameters once per dataset and never changes them again.

Softmax regression under Adam with no validation (the paper workload's
model) has a second, faster loop: :func:`train_lockstep` steps K such
trainings in lockstep on stacked arrays, one set of numpy calls per tick
instead of one per model.  It is bitwise identical to the per-batch loop,
and :meth:`Trainer.fit` uses it with K = 1 for every model it covers.

Neither loop makes a separate pass over the training data to score an
epoch: a full forward pass after every epoch would add a third or more to
training time.  The per-epoch training loss is the mean of each example's
log loss under the parameters of the step that used it, from the
probabilities that step computes anyway.  The only loss evaluated on other
data is the validation loss that early stopping needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from repro.ml.data import Dataset
from repro.ml.linear import SoftmaxRegression
from repro.ml.losses import example_log_losses, one_hot, softmax
from repro.ml.optim import Adam, Optimizer, make_optimizer
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int


class TrainableModel(Protocol):
    """Structural interface the Trainer expects of a model."""

    n_classes: int

    def initialize(self, n_features: int) -> None: ...

    def parameters(self) -> list[np.ndarray]: ...

    def losses_and_gradients(
        self, features: np.ndarray, labels: np.ndarray
    ) -> tuple[np.ndarray, list[np.ndarray]]: ...

    def loss(self, dataset: Dataset) -> float: ...

    def predict(self, features: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class TrainingConfig:
    """Hyperparameters for a training run.

    Attributes
    ----------
    epochs:
        Maximum number of passes over the training data.
    batch_size:
        Mini-batch size; batches are drawn without replacement each epoch.
    optimizer:
        Name of the optimizer (``"sgd"``, ``"momentum"``, ``"adam"``).
    learning_rate:
        Step size passed to the optimizer.
    early_stopping_patience:
        Stop if the validation loss has not improved for this many epochs.
        ``0`` disables early stopping.
    validation_fraction:
        When early stopping is enabled and no explicit validation set is
        given to :meth:`Trainer.fit`, this fraction of the training data is
        held out internally.
    restore_best:
        When early stopping is in force, restore the parameters of the epoch
        with the best validation loss instead of keeping the post-patience
        weights.  Off by default, matching the historical behaviour.
    """

    epochs: int = 60
    batch_size: int = 32
    optimizer: str = "adam"
    learning_rate: float = 0.02
    early_stopping_patience: int = 0
    validation_fraction: float = 0.0
    restore_best: bool = False

    def __post_init__(self) -> None:
        check_positive_int(self.epochs, "epochs")
        check_positive_int(self.batch_size, "batch_size")
        if self.early_stopping_patience < 0:
            raise ConfigurationError(
                f"early_stopping_patience must be >= 0, got "
                f"{self.early_stopping_patience}"
            )
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigurationError(
                f"validation_fraction must lie in [0, 1), got "
                f"{self.validation_fraction}"
            )


@dataclass
class TrainingResult:
    """Outcome of a training run; the fitted parameters live in the model.

    Attributes
    ----------
    epochs_run:
        Number of epochs actually executed (may be fewer than configured if
        early stopping triggered).
    train_losses:
        Per-epoch mean log loss on the training data, each example scored
        by the parameters of the step that trained on it.
    validation_losses:
        Per-epoch loss on the validation data (empty when none was used).
    stopped_early:
        Whether the patience criterion ended training.
    best_epoch:
        1-based epoch with the best validation loss (``None`` when no
        validation ran).
    restored_best:
        Whether the best epoch's parameters were restored into the model
        (``restore_best`` configs only).
    """

    epochs_run: int = 0
    train_losses: list[float] = field(default_factory=list)
    validation_losses: list[float] = field(default_factory=list)
    stopped_early: bool = False
    best_epoch: int | None = None
    restored_best: bool = False

    @property
    def final_train_loss(self) -> float:
        """Training loss of the last epoch."""
        return self.train_losses[-1] if self.train_losses else float("nan")


class Trainer:
    """Mini-batch gradient-descent training loop.

    Parameters
    ----------
    config:
        Training hyperparameters; a default config is used when omitted.
    random_state:
        Controls batch shuffling and the internal validation split.
    """

    def __init__(
        self,
        config: TrainingConfig | None = None,
        random_state: RandomState = None,
    ) -> None:
        self.config = config or TrainingConfig()
        self._rng = as_generator(random_state)

    def fit(
        self,
        model: TrainableModel,
        train: Dataset,
        validation: Dataset | None = None,
    ) -> TrainingResult:
        """Train ``model`` on ``train`` and return a :class:`TrainingResult`.

        The model is (re-)initialized, so a fresh model of the same
        architecture is fitted each time — matching the paper's protocol of
        retraining from scratch on every data subset.
        """
        if len(train) == 0:
            raise ConfigurationError("cannot train on an empty dataset")
        config = self.config
        if lockstep_key(model, train, config, validation) is not None:
            return train_lockstep([(model, train, self._rng)], config)[0]

        if (
            validation is None
            and config.early_stopping_patience > 0
            and config.validation_fraction > 0.0
            and len(train) >= 10
        ):
            from repro.ml.data import train_validation_split

            train, validation = train_validation_split(
                train, config.validation_fraction, random_state=self._rng
            )

        model.initialize(train.n_features)
        optimizer: Optimizer = make_optimizer(config.optimizer, config.learning_rate)
        result = TrainingResult()

        best_validation = float("inf")
        best_parameters: list[np.ndarray] | None = None
        epochs_without_improvement = 0
        track_best = (
            config.restore_best and config.early_stopping_patience > 0
        )

        for epoch in range(config.epochs):
            result.train_losses.append(self._run_epoch(model, optimizer, train))
            result.epochs_run = epoch + 1

            if validation is not None and len(validation) > 0:
                val_loss = model.loss(validation)
                result.validation_losses.append(val_loss)
                if val_loss < best_validation - 1e-6:
                    best_validation = val_loss
                    result.best_epoch = epoch + 1
                    epochs_without_improvement = 0
                    if track_best:
                        best_parameters = [p.copy() for p in model.parameters()]
                elif config.early_stopping_patience > 0:
                    epochs_without_improvement += 1
                    if epochs_without_improvement >= config.early_stopping_patience:
                        result.stopped_early = True
                        break

        if track_best and best_parameters is not None:
            for parameter, best in zip(model.parameters(), best_parameters):
                parameter[...] = best
            result.restored_best = True
        return result

    def _run_epoch(
        self, model: TrainableModel, optimizer: Optimizer, train: Dataset
    ) -> float:
        """One pass over the training data in shuffled mini-batches.

        Returns the epoch's training loss: the mean over the examples of
        each one's loss at the step that trained on it.
        """
        n = len(train)
        order = self._rng.permutation(n)
        batch_size = min(self.config.batch_size, n)
        losses = np.empty(n)
        for start in range(0, n, batch_size):
            batch_idx = order[start : start + batch_size]
            features = train.features[batch_idx]
            labels = train.labels[batch_idx]
            losses[batch_idx], grads = model.losses_and_gradients(features, labels)
            optimizer.update(model.parameters(), grads)
        return float(losses.mean())


def steps_per_epoch(n: int, batch_size: int) -> int:
    """Mini-batches in one epoch over ``n`` examples (the last may be short)."""
    return -(-n // min(batch_size, n))


def lockstep_key(
    model: TrainableModel,
    train: Dataset,
    config: TrainingConfig,
    validation: Dataset | None = None,
) -> tuple | None:
    """Which :func:`train_lockstep` call a training can join, if any.

    Trainings with equal keys can step in lockstep: a plain
    :class:`~repro.ml.linear.SoftmaxRegression` under Adam, with no
    validation data and no early stopping, on data of the same width and
    hyperparameters.  Every other training (other models, optimizers,
    validation, patience) returns ``None`` and runs the per-batch loop.
    """
    if (
        type(model) is not SoftmaxRegression
        or validation is not None
        or config.early_stopping_patience > 0
        or config.optimizer.strip().lower() != "adam"
    ):
        return None
    return (
        train.n_features,
        model.n_classes,
        model.l2,
        config.epochs,
        config.batch_size,
        config.learning_rate,
    )


def train_lockstep(
    lanes: Sequence[tuple[SoftmaxRegression, Dataset, RandomState]],
    config: TrainingConfig,
) -> list[TrainingResult]:
    """Train several softmax regressions in lockstep; one result per lane.

    Each lane is ``(model, train, random_state)`` and every lane must share
    one :func:`lockstep_key`.  Every lane draws its own per-epoch
    permutation from its own generator and keeps its own batch boundaries,
    so each model ends bitwise equal to a per-batch :meth:`Trainer.fit`
    with that generator; lanes must therefore not share a generator.

    The lanes are ordered by total step count, and their parameters and
    Adam moments sit in one ``(K, d*k + k)`` buffer in that order.  All
    active lanes step once per tick, so the active set is always a prefix of
    the buffer, Adam's bias correction is one scalar, and the Adam step is
    one set of elementwise calls.  Within a tick, lanes whose current batch
    has the same length (all full batches, or equal short last batches)
    share one stacked forward/backward pass.  Each step keeps the class
    probabilities it computed for its examples; when a lane finishes an
    epoch, its training loss is scored from those, as the per-batch loop
    scores it.  Scratch memory is one stacked copy of the training data,
    one-hot targets and kept probabilities: O(sum n*(d + k)), independent
    of ``epochs``.  No model is read while the lanes train, so each lane's
    final row is written into its model's own arrays once, at the end.
    """
    models = [model for model, _, _ in lanes]
    trains = [train for _, train, _ in lanes]
    if any(len(train) == 0 for train in trains):
        raise ConfigurationError("cannot train on an empty dataset")
    rngs = [as_generator(random_state) for _, _, random_state in lanes]
    n_features = trains[0].n_features
    n_classes = models[0].n_classes
    l2 = models[0].l2
    epochs, batch_size = config.epochs, config.batch_size
    optimizer = Adam(config.learning_rate)

    # Buffer row r holds lane order[r]; lanes with more steps come first.
    totals = [epochs * steps_per_epoch(len(train), batch_size) for train in trains]
    order = sorted(range(len(lanes)), key=lambda lane: -totals[lane])
    sizes = [len(trains[lane]) for lane in order]
    offsets = np.cumsum([0, *sizes[:-1]])
    features = np.concatenate([trains[lane].features for lane in order])
    labels = np.concatenate([trains[lane].labels for lane in order])
    targets = one_hot(labels, n_classes)
    # Each example's class probabilities at the step that trained on it.
    seen = np.empty_like(targets)

    n_weights = n_features * n_classes
    params = np.empty((len(lanes), n_weights + n_classes))
    grads = np.empty_like(params)
    first_moments = np.zeros_like(params)
    second_moments = np.zeros_like(params)
    for model in models:
        model.initialize(n_features)
    for row, lane in enumerate(order):
        params[row, :n_weights] = models[lane].weights.ravel()
        params[row, n_weights:] = models[lane].bias

    losses: list[list[float]] = [[] for _ in lanes]
    permutations: list[np.ndarray] = [np.empty(0, dtype=np.intp)] * len(lanes)
    positions = [0] * len(lanes)
    index = np.empty((len(lanes), batch_size), dtype=np.intp)
    active, tick = len(lanes), 0
    while active:
        tick += 1
        groups: dict[int, list[int]] = {}
        batches: list[np.ndarray] = []
        finished: list[int] = []
        for row in range(active):
            start = positions[row]
            if start == 0:
                permutations[row] = (
                    rngs[order[row]].permutation(sizes[row]) + offsets[row]
                )
            stop = min(start + batch_size, sizes[row])
            # A finished epoch restarts at 0, drawing a new permutation.
            if stop < sizes[row]:
                positions[row] = stop
            else:
                positions[row] = 0
                finished.append(row)
            batches.append(permutations[row][start:stop])
            groups.setdefault(stop - start, []).append(row)
        for length, rows in groups.items():
            for slot, row in enumerate(rows):
                index[slot, :length] = batches[row]
            rows_idx = index[: len(rows), :length]
            # Rows come in buffer order, so a group of the first G rows is a
            # view of the buffer; any other group is gathered and scattered.
            selected = slice(0, len(rows)) if rows[-1] == len(rows) - 1 else rows
            x = features[rows_idx]
            lane_params = params[selected]
            weights = lane_params[:, :n_weights].reshape(-1, n_features, n_classes)
            probabilities = softmax(
                np.matmul(x, weights) + lane_params[:, None, n_weights:]
            )
            seen[rows_idx] = probabilities
            dlogits = (probabilities - targets[rows_idx]) / length
            grads[selected, :n_weights] = (
                np.matmul(x.transpose(0, 2, 1), dlogits) + l2 * weights
            ).reshape(-1, n_weights)
            grads[selected, n_weights:] = dlogits.sum(axis=1)
        optimizer.apply(
            params[:active],
            grads[:active],
            first_moments[:active],
            second_moments[:active],
            tick,
        )
        for row in finished:
            lane = slice(offsets[row], offsets[row] + sizes[row])
            losses[order[row]].append(
                float(example_log_losses(seen[lane], labels[lane]).mean())
            )
        while active and totals[order[active - 1]] == tick:
            active -= 1

    for row, lane in enumerate(order):
        models[lane].weights[...] = params[row, :n_weights].reshape(
            n_features, n_classes
        )
        models[lane].bias[...] = params[row, n_weights:]
    return [
        TrainingResult(epochs_run=epochs, train_losses=lane_losses)
        for lane_losses in losses
    ]


def train_model(
    model: TrainableModel,
    train: Dataset,
    validation: Dataset | None = None,
    config: TrainingConfig | None = None,
    random_state: RandomState = None,
) -> TrainingResult:
    """Functional convenience wrapper around :class:`Trainer`."""
    return Trainer(config=config, random_state=random_state).fit(
        model, train, validation
    )
