"""Lockstep training: bitwise parity with the per-batch Trainer loop.

``train_lockstep`` steps K softmax regressions on stacked arrays.  The
contract is that every lane ends bitwise equal to training that model
alone: same weights, bias, per-epoch losses and epoch count.  The reference
here is the per-batch loop itself — a ``SoftmaxRegression`` subclass is not
lockstep-compatible, so ``Trainer.fit`` runs it one mini-batch at a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import build_task
from repro.engine.executor import ProcessPoolExecutor, SerialExecutor
from repro.engine.factories import MLPFactory, get_model_factory
from repro.engine.job import TrainingJob, run_training_job, run_training_wave
from repro.ml.data import Dataset
from repro.ml.linear import SoftmaxRegression
from repro.ml.mlp import MLPClassifier
from repro.ml.train import Trainer, TrainingConfig, lockstep_key, train_lockstep
from repro.telemetry import CollectSink, Tracer, set_tracer
from repro.utils.exceptions import ConfigurationError

BLUEPRINTS = ("fashion_like", "mixed_like", "faces_like", "adult_like")
CONFIG = TrainingConfig(epochs=3, batch_size=32, optimizer="adam", learning_rate=0.02)


class PerBatchSoftmax(SoftmaxRegression):
    """Same model, but not lockstep-compatible: trains batch by batch."""


@pytest.fixture(scope="module", params=BLUEPRINTS)
def blueprint_data(request) -> tuple[Dataset, int]:
    """The combined training set of one paper blueprint at its real width."""
    task = build_task(request.param)
    sliced = task.initial_sliced_dataset(60, validation_size=5, random_state=3)
    return sliced.combined_train(), task.n_classes


def reference_fit(train: Dataset, n_classes: int, seed: int, config=CONFIG):
    model = PerBatchSoftmax(n_classes, random_state=0)
    training = Trainer(config, random_state=seed).fit(model, train)
    return model, training


def assert_same(reference, model, training) -> None:
    reference_model, reference_training = reference
    assert np.array_equal(reference_model.weights, model.weights)
    assert np.array_equal(reference_model.bias, model.bias)
    assert reference_training.train_losses == training.train_losses
    assert reference_training.epochs_run == training.epochs_run


def assert_lockstep_matches(trains, n_classes, config=CONFIG) -> None:
    seeds = [11 * (lane + 1) for lane in range(len(trains))]
    models = [SoftmaxRegression(n_classes, random_state=0) for _ in trains]
    trainings = train_lockstep(list(zip(models, trains, seeds)), config)
    assert len(trainings) == len(trains)
    for train, seed, model, training in zip(trains, seeds, models, trainings):
        assert_same(reference_fit(train, n_classes, seed, config), model, training)


class TestLockstepParity:
    def test_wave_of_growing_subsets(self, blueprint_data):
        full, n_classes = blueprint_data
        sizes = [int(len(full) * f) for f in (0.2, 0.47, 0.73, 1.0)]
        assert_lockstep_matches([full.take(n) for n in sizes], n_classes)

    def test_fewer_examples_than_a_batch(self, blueprint_data):
        full, n_classes = blueprint_data
        assert_lockstep_matches([full.take(n) for n in (1, 5, 31)], n_classes)

    def test_sizes_divisible_and_not_by_the_batch(self, blueprint_data):
        full, n_classes = blueprint_data
        trains = [full.take(n) for n in (64, 96, 65, 127)]
        assert all(len(train) in (64, 96, 65, 127) for train in trains)
        assert_lockstep_matches(trains, n_classes)

    def test_single_lane(self, blueprint_data):
        full, n_classes = blueprint_data
        assert_lockstep_matches([full.take(77)], n_classes)

    def test_lanes_of_equal_size(self, blueprint_data):
        full, n_classes = blueprint_data
        rng = np.random.default_rng(5)
        trains = [full.subset(rng.permutation(len(full))[:90]) for _ in range(3)]
        assert_lockstep_matches(trains, n_classes)

    def test_short_batches_of_equal_length_share_a_tick(self, blueprint_data):
        full, n_classes = blueprint_data
        config = TrainingConfig(epochs=4, batch_size=7, learning_rate=0.05)
        trains = [full.take(n) for n in (10, 17, 24, 3, 45)]
        assert_lockstep_matches(trains, n_classes, config)

    def test_trainer_fit_matches_the_per_batch_loop(self, blueprint_data):
        full, n_classes = blueprint_data
        train = full.take(100)
        model = SoftmaxRegression(n_classes, random_state=0)
        training = Trainer(CONFIG, random_state=4).fit(model, train)
        assert_same(reference_fit(train, n_classes, 4), model, training)

    def test_trainer_reuse_continues_one_stream(self, blueprint_data):
        full, n_classes = blueprint_data
        trainer, reference_trainer = Trainer(CONFIG, 9), Trainer(CONFIG, 9)
        for n in (40, 70):
            model = SoftmaxRegression(n_classes, random_state=0)
            reference = PerBatchSoftmax(n_classes, random_state=0)
            training = trainer.fit(model, full.take(n))
            reference_training = reference_trainer.fit(reference, full.take(n))
            assert_same((reference, reference_training), model, training)

    def test_trained_parameters_own_their_memory(self, blueprint_data):
        full, n_classes = blueprint_data
        models = [SoftmaxRegression(n_classes, random_state=0) for _ in range(2)]
        train_lockstep([(m, full.take(50), 1) for m in models], CONFIG)
        for model in models:
            assert model.weights.base is None and model.bias.base is None


class TestLockstepKey:
    def test_compatible_softmax_adam(self, separable_dataset):
        model = SoftmaxRegression(2)
        assert lockstep_key(model, separable_dataset, CONFIG) is not None

    @pytest.mark.parametrize(
        "model, config, validation",
        [
            (MLPClassifier(2, hidden_sizes=(4,)), CONFIG, None),
            (PerBatchSoftmax(2), CONFIG, None),
            (SoftmaxRegression(2), TrainingConfig(optimizer="sgd"), None),
            (SoftmaxRegression(2), TrainingConfig(optimizer="momentum"), None),
            (SoftmaxRegression(2), TrainingConfig(early_stopping_patience=2), None),
            (SoftmaxRegression(2), CONFIG, "validation"),
        ],
    )
    def test_everything_else_falls_back(
        self, separable_dataset, model, config, validation
    ):
        validation = separable_dataset if validation else None
        assert lockstep_key(model, separable_dataset, config, validation) is None

    def test_key_separates_hyperparameters(self, separable_dataset):
        keys = {
            lockstep_key(SoftmaxRegression(2, l2=l2), separable_dataset, config)
            for l2 in (1e-4, 1e-3)
            for config in (CONFIG, TrainingConfig(epochs=4), TrainingConfig(batch_size=8))
        }
        assert len(keys) == 6

    def test_empty_training_set_is_rejected(self):
        with pytest.raises(ConfigurationError):
            train_lockstep([(SoftmaxRegression(2), Dataset.empty(3), 0)], CONFIG)


def mixed_wave(train: Dataset, n_classes: int) -> list[TrainingJob]:
    """Lockstep-compatible jobs interleaved with every kind of fallback job."""
    softmax = get_model_factory("softmax")
    holdout = train.take(20)

    def job(index, n, factory=softmax, config=CONFIG, validation=None):
        return TrainingJob(
            train=train.take(n),
            n_classes=n_classes,
            seed=1000 + index,
            trainer_config=config,
            model_factory=factory,
            validation=validation,
            tag=("job", index),
        )

    return [
        job(0, 90),
        job(1, 60, factory=MLPFactory(hidden_sizes=(8,))),
        job(2, 150),
        job(3, 70, config=TrainingConfig(epochs=3, batch_size=32, optimizer="sgd")),
        job(4, 40, validation=holdout),
        job(5, 33),
        job(
            6,
            80,
            config=TrainingConfig(
                epochs=3, early_stopping_patience=1, validation_fraction=0.25
            ),
        ),
        job(7, 90, config=TrainingConfig(epochs=3, batch_size=16)),
        job(8, 120),
    ]


def assert_results_equal(left, right) -> None:
    assert [r.tag for r in left] == [r.tag for r in right]
    for a, b in zip(left, right):
        for p, q in zip(a.model.parameters(), b.model.parameters()):
            assert np.array_equal(p, q)
        assert a.training == b.training


class TestMixedWaves:
    def test_fallback_jobs_keep_submission_order(self, blueprint_data):
        full, n_classes = blueprint_data
        jobs = mixed_wave(full, n_classes)
        collector = CollectSink()
        previous = set_tracer(Tracer(sinks=[collector]))
        try:
            wave = run_training_wave(jobs)
        finally:
            set_tracer(previous)
        assert_results_equal(wave, [run_training_job(job) for job in jobs])
        # Jobs 0, 2, 5 and 8 share one key; job 7 (batch 16) trains alone.
        lanes = [
            span.attributes["lanes"]
            for span in collector.spans()
            if span.name == "engine.lockstep"
        ]
        assert lanes == [4]

    def test_lockstep_jobs_match_the_per_batch_loop(self, blueprint_data):
        full, n_classes = blueprint_data
        jobs = mixed_wave(full, n_classes)
        results = SerialExecutor().submit(jobs)
        for index in (0, 2, 5, 8):
            reference = reference_fit(jobs[index].train, n_classes, jobs[index].seed)
            assert_same(reference, results[index].model, results[index].training)

    def test_process_pool_equals_serial(self):
        task = build_task("fashion_like")
        full = task.initial_sliced_dataset(40, 5, random_state=0).combined_train()
        jobs = mixed_wave(full, task.n_classes)
        serial = SerialExecutor().submit(jobs)
        with ProcessPoolExecutor(max_workers=2) as executor:
            pooled = executor.submit(jobs)
        assert_results_equal(serial, pooled)
