"""Machine-learning substrate built on NumPy.

The paper trains Keras CNNs; this reproduction substitutes NumPy
implementations of softmax regression and multi-layer perceptrons (see
``DESIGN.md``).  Slice Tuner only consumes per-slice validation losses as a
function of training-set size, so any classifier with the familiar power-law
loss decay exercises the framework's code paths faithfully.

Public entry points:

* :class:`~repro.ml.data.Dataset` — immutable (features, labels) container.
* :class:`~repro.ml.linear.SoftmaxRegression` and
  :class:`~repro.ml.mlp.MLPClassifier` — the classifiers.
* :class:`~repro.ml.train.Trainer` / :class:`~repro.ml.train.TrainingConfig`
  — the training loop with mini-batching and early stopping.
* :func:`~repro.ml.metrics.log_loss`, :func:`~repro.ml.metrics.accuracy`,
  :func:`~repro.ml.metrics.per_slice_losses` — evaluation helpers.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".data": ("Dataset", "train_validation_split"),
        ".linear": ("LogisticRegression", "SoftmaxRegression"),
        ".losses": ("cross_entropy_loss", "sigmoid", "softmax"),
        ".metrics": ("accuracy", "log_loss", "per_slice_losses"),
        ".mlp": ("MLPClassifier",),
        ".optim": ("SGD", "Adam", "Momentum", "Optimizer"),
        ".preprocessing": ("OneHotEncoder", "StandardScaler"),
        ".train": ("Trainer", "TrainingConfig", "TrainingResult"),
    },
)
