"""The declarative training-job spec and its content-addressed fingerprint.

A :class:`TrainingJob` captures everything one model training depends on —
the training data, the model factory, the trainer configuration, and a seed
spawned up-front by the caller.  Two consequences:

* **Determinism** — executing a job is a pure function of the spec, so any
  executor backend (in-process or a process pool, in any order) produces the
  same trained model for the same job.
* **Content addressing** — :attr:`TrainingJob.fingerprint` hashes the data,
  configuration, factory name, and seed, so a
  :class:`~repro.engine.cache.ResultCache` can recognise a repeated training
  and skip it entirely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Any, Sequence

from repro.engine.factories import ModelFactory
from repro.ml.data import Dataset
from repro.ml.train import (
    Trainer,
    TrainingConfig,
    TrainingResult,
    lockstep_key,
    steps_per_epoch,
    train_lockstep,
)
from repro.telemetry import get_tracer


def fingerprint_dataset(dataset: Dataset) -> str:
    """Content hash of a dataset (features, labels, shapes, and dtypes).

    Dtypes and per-array separators are hashed even though :class:`Dataset`
    currently coerces to float64/int64 — the cache key must never rely on a
    container invariant it cannot see.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{dataset.features.shape}:{dataset.features.dtype}\x1f".encode()
    )
    digest.update(dataset.features.tobytes())
    digest.update(f"\x1f{dataset.labels.shape}:{dataset.labels.dtype}\x1f".encode())
    digest.update(dataset.labels.tobytes())
    return digest.hexdigest()


def stable_seed(*parts: Any) -> int:
    """Derive a deterministic 63-bit seed from arbitrary hashable parts.

    Unlike ``hash()``, the result is stable across processes and Python
    invocations, which is what lets repeated estimations on identical data
    rebuild identical job specs (and therefore hit the result cache).
    """
    digest = hashlib.sha256("\x1f".join(str(part) for part in parts).encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


def _fingerprint_config(config: TrainingConfig) -> str:
    pairs = [(f.name, getattr(config, f.name)) for f in fields(config)]
    return repr(sorted(pairs))


@dataclass(frozen=True, eq=False)
class TrainingJob:
    """One from-scratch model training, fully specified up-front.

    Attributes
    ----------
    train:
        The training data.
    n_classes:
        Number of classes the model must discriminate.
    seed:
        Seed for the trainer's RNG (batch shuffling, internal validation
        split).  Spawn it from the parent RNG *before* submitting, so serial
        and parallel executors see identical seeds.
    trainer_config:
        Hyperparameters of the training run.
    model_factory:
        Callable ``n_classes -> model``.  Must be picklable (a module-level
        function, a registered factory, or a dataclass instance) to cross a
        process-pool boundary; any callable works with the serial executor.
    factory_name:
        Stable identifier of the factory used for fingerprinting; defaults
        to a name derived from the callable (see
        :func:`repro.engine.factories.describe_factory`).
    validation:
        Optional validation data forwarded to :meth:`Trainer.fit`.
    tag:
        Caller-side correlation data (e.g. ``(repeat, fraction)``); carried
        through to the result, never fingerprinted.
    """

    train: Dataset
    n_classes: int
    seed: int
    trainer_config: TrainingConfig = field(default_factory=TrainingConfig)
    model_factory: ModelFactory | None = None
    factory_name: str = ""
    validation: Dataset | None = None
    tag: Any = None

    @cached_property
    def fingerprint(self) -> str:
        """Content hash identifying this job for the result cache."""
        from repro.engine.factories import describe_factory

        factory_name = self.factory_name or describe_factory(self.model_factory)
        digest = hashlib.sha256()
        digest.update(fingerprint_dataset(self.train).encode())
        if self.validation is not None:
            digest.update(fingerprint_dataset(self.validation).encode())
        digest.update(
            "\x1f".join(
                (
                    str(self.n_classes),
                    str(self.seed),
                    _fingerprint_config(self.trainer_config),
                    factory_name,
                )
            ).encode()
        )
        return digest.hexdigest()


@dataclass
class JobResult:
    """Outcome of one executed (or cache-served) training job.

    Attributes
    ----------
    fingerprint:
        The job's content hash (cache key).  Filled in by the executor only
        when a cache is attached — computing it hashes the full training
        set, which would be pure overhead on cache-less runs.
    model:
        The trained model.  Cached results hand out fresh copies, but treat
        the model as read-only all the same.
    training:
        The :class:`~repro.ml.train.TrainingResult` of the run.
    tag:
        The submitting job's correlation tag.
    from_cache:
        True when the result was served by a
        :class:`~repro.engine.cache.ResultCache` instead of a fresh training
        — callers use this to keep training counters honest.
    """

    model: object
    training: TrainingResult
    fingerprint: str = ""
    tag: Any = None
    from_cache: bool = False


def _build_model(job: TrainingJob) -> object:
    if job.model_factory is None:
        from repro.engine.factories import get_model_factory

        factory: ModelFactory = get_model_factory(job.factory_name)
    else:
        factory = job.model_factory
    return factory(job.n_classes)


def _fit(job: TrainingJob, model: object) -> JobResult:
    trainer = Trainer(config=job.trainer_config, random_state=job.seed)
    training = trainer.fit(model, job.train, job.validation)
    return JobResult(model=model, training=training, tag=job.tag)


def run_training_job(job: TrainingJob) -> JobResult:
    """Execute one job: build a fresh model, train it, package the result.

    Module-level (not a method) so process-pool workers can import it.
    """
    return _fit(job, _build_model(job))


def run_training_wave(jobs: Sequence[TrainingJob]) -> list[JobResult]:
    """Execute a wave of jobs, stepping compatible ones in lockstep.

    Two or more jobs with equal :func:`~repro.ml.train.lockstep_key`
    (softmax regression under Adam with no validation or early stopping, on
    the same data width and hyperparameters) train together in one
    :func:`~repro.ml.train.train_lockstep` call under an ``engine.lockstep``
    span.  Every other job trains alone through :meth:`Trainer.fit
    <repro.ml.train.Trainer.fit>`, as :func:`run_training_job` would.  Each
    job keeps its own seed, so every result is bitwise equal to
    :func:`run_training_job` on that job; results come back in submission
    order.
    """
    models = [_build_model(job) for job in jobs]
    results: list[JobResult | None] = [None] * len(jobs)
    waves: dict[tuple | None, list[int]] = {}
    for index, (job, model) in enumerate(zip(jobs, models)):
        key = lockstep_key(model, job.train, job.trainer_config, job.validation)
        waves.setdefault(key, []).append(index)
    tracer = get_tracer()
    for key, indices in waves.items():
        if key is None or len(indices) == 1:
            for index in indices:
                results[index] = _fit(jobs[index], models[index])
            continue
        config = jobs[indices[0]].trainer_config
        sizes = [len(jobs[index].train) for index in indices]
        with tracer.span(
            "engine.lockstep",
            attributes={
                "lanes": len(indices),
                "ticks": config.epochs
                * max(steps_per_epoch(n, config.batch_size) for n in sizes),
                "examples": config.epochs * sum(sizes),
            },
        ):
            trainings = train_lockstep(
                [(models[i], jobs[i].train, jobs[i].seed) for i in indices], config
            )
        for index, training in zip(indices, trainings):
            results[index] = JobResult(
                model=models[index], training=training, tag=jobs[index].tag
            )
    return results
