"""Executor backends: where (and whether) training jobs run in parallel.

An :class:`Executor` takes a batch of :class:`~repro.engine.job.TrainingJob`
specs and returns their :class:`~repro.engine.job.JobResult`\\ s **in
submission order**.  Because every job carries its own pre-spawned seed, the
backend is purely a deployment choice: :class:`SerialExecutor` (in-process)
and :class:`ProcessPoolExecutor` (one worker process per core) produce
byte-identical results for the same jobs.

:class:`SerialExecutor` trains each wave (the cache misses of one
:meth:`Executor.submit` call) in lockstep: compatible softmax jobs step
together on stacked arrays, one set of numpy calls per mini-batch tick
instead of one per job, with results bitwise equal to training each job
alone.  :class:`ProcessPoolExecutor` trains one job per worker task.

Both backends optionally wrap a :class:`~repro.engine.cache.ResultCache`;
cached jobs are served without running, and only the misses are dispatched.
Executors also expose :meth:`Executor.map` — a generic ordered map used by
the experiment runner to fan a scenario/method/trial grid out across
workers.
"""

from __future__ import annotations

import concurrent.futures
import os
import pickle
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.engine.backends import available_executors, get_executor  # noqa: F401
from repro.engine.cache import ResultCache
from repro.engine.job import (
    JobResult,
    TrainingJob,
    run_training_job,
    run_training_wave,
)
from repro.telemetry import (
    CollectSink,
    MetricsRegistry,
    Span,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)
from repro.utils.exceptions import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


class Executor:
    """Base class: cache bookkeeping plus an ordered-execution contract.

    Parameters
    ----------
    cache:
        Optional :class:`~repro.engine.cache.ResultCache`.  Hits skip
        execution entirely (``JobResult.from_cache`` is True for them);
        misses are executed by the backend and stored.
    """

    name: str = "base"

    def __init__(self, cache: ResultCache | None = None) -> None:
        self.cache = cache

    # -- the contract ------------------------------------------------------------
    def submit(self, jobs: Sequence[TrainingJob]) -> list[JobResult]:
        """Run ``jobs`` (serving cache hits), results in submission order."""
        jobs = list(jobs)
        registry = get_registry()
        registry.counter("engine.jobs").inc(len(jobs))
        with get_tracer().span(
            "engine.submit",
            attributes={"executor": self.name, "jobs": len(jobs)},
        ) as span:
            results: list[JobResult | None] = [None] * len(jobs)
            pending: list[tuple[int, TrainingJob]] = []
            if self.cache is None:
                pending = list(enumerate(jobs))
            else:
                for index, job in enumerate(jobs):
                    hit = self.cache.get(job.fingerprint)
                    if hit is not None:
                        hit.tag = job.tag
                        results[index] = hit
                    else:
                        pending.append((index, job))
            if pending:
                executed = self._run_jobs([job for _, job in pending])
                for (index, job), result in zip(pending, executed, strict=True):
                    results[index] = result
                    if self.cache is not None:
                        # Job fingerprints hash the full training set, so they
                        # are only materialized on cached runs.
                        result.fingerprint = job.fingerprint
                        if not result.from_cache:
                            # A shared-cache worker may have served this "miss"
                            # from another process's training; re-storing would
                            # only rewrite an identical entry.
                            self.cache.put(job.fingerprint, result)
            hits = len(jobs) - len(pending)
            registry.counter("engine.cache_hits").inc(hits)
            registry.counter("engine.cache_misses").inc(len(pending))
            span.set_attribute("cache_hits", hits)
            span.set_attribute("executed", len(pending))
        if any(result is None for result in results):
            raise RuntimeError("executor backend dropped a job result")
        return results

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving order (generic fan-out)."""
        raise NotImplementedError

    def _run_jobs(self, jobs: Sequence[TrainingJob]) -> list[JobResult]:
        """Execute cache-missed jobs; must preserve order."""
        raise NotImplementedError

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (a no-op for in-process backends)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class _ShippedJob:
    """A worker's result plus the telemetry it produced (picklable)."""

    result: JobResult
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)


@dataclass
class _TracedWorkerRunner:
    """Picklable wrapper running one job under a worker-local tracer.

    The worker installs a fresh tracer (collect sink) and a fresh metrics
    registry around the job, so the shipped payload contains exactly this
    job's spans and metric deltas — pool processes are reused across jobs,
    and a process-wide registry would double-count.  The span id derives
    from the parent ``engine.submit`` span and the job's submission index,
    never from which worker ran it.
    """

    runner: Callable[[TrainingJob], JobResult]
    parent_id: str
    baggage: dict

    def __call__(self, indexed_job: tuple[int, TrainingJob]) -> _ShippedJob:
        index, job = indexed_job
        collector = CollectSink()
        tracer = Tracer(sinks=[collector])
        registry = MetricsRegistry()
        previous_tracer = set_tracer(tracer)
        previous_registry = set_registry(registry)
        try:
            with tracer.span(
                "engine.job",
                parent=self.parent_id,
                sequence=index,
                attributes={"index": index, "tag": repr(job.tag)},
                baggage=self.baggage,
            ) as span:
                result = self.runner(job)
                span.set_attribute("from_cache", bool(result.from_cache))
        finally:
            set_tracer(previous_tracer)
            set_registry(previous_registry)
        return _ShippedJob(
            result=result,
            spans=[span.to_dict() for span in collector.spans()],
            metrics=registry.snapshot(),
        )


class SerialExecutor(Executor):
    """Run a wave's jobs in the calling process, compatible ones in lockstep.

    The cache-missed jobs of one :meth:`submit` call form a wave.  Softmax
    regressions under Adam that share data width and hyperparameters step
    together through :func:`~repro.ml.train.train_lockstep`; every other
    job (MLP, SGD/momentum, validation, early stopping) trains alone.  Each
    result is bitwise equal to training that job by itself (see
    :func:`~repro.engine.job.run_training_wave`).
    """

    name = "serial"

    def _run_jobs(self, jobs: Sequence[TrainingJob]) -> list[JobResult]:
        return run_training_wave(jobs)

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        return [fn(item) for item in items]


class ProcessPoolExecutor(Executor):
    """Fan jobs out across worker processes.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to the CPU count.
    cache:
        Optional result cache (lives in the parent process; workers only see
        cache misses).
    chunksize:
        Jobs shipped per worker task; 1 keeps scheduling responsive for the
        heterogeneous job sizes the estimator produces.

    Jobs and their results must be picklable.  A closure model factory (the
    one realistic offender) degrades gracefully: the whole batch is executed
    serially in the parent with a warning, so correctness never depends on
    the backend.  Only the factories are probed — datasets, configs, and
    seeds always pickle, and probing whole jobs would serialize every
    training set twice.
    """

    name = "process"

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        chunksize: int = 1,
    ) -> None:
        super().__init__(cache=cache)
        if max_workers is not None and max_workers <= 0:
            raise ConfigurationError(
                f"max_workers must be positive or None, got {max_workers}"
            )
        if chunksize <= 0:
            raise ConfigurationError(f"chunksize must be positive, got {chunksize}")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunksize = chunksize
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.max_workers
            )
        return self._pool

    @staticmethod
    def _picklable(payload: object) -> bool:
        try:
            pickle.dumps(payload)
        except Exception:
            return False
        return True

    def _run_jobs(self, jobs: Sequence[TrainingJob]) -> list[JobResult]:
        if not jobs:
            return []
        factories = {id(job.model_factory): job.model_factory for job in jobs}
        if not all(self._picklable(factory) for factory in factories.values()):
            warnings.warn(
                "a job's model factory is not picklable (closure?); "
                "falling back to serial execution for this batch",
                RuntimeWarning,
                stacklevel=3,
            )
            return run_training_wave(jobs)
        pool = self._ensure_pool()
        # A process-shared cache (SqliteResultCache) supplies a picklable
        # runner that re-checks and feeds the shared file from inside each
        # worker, so results land on disk the moment they finish and no
        # cross-process result is ever retrained.
        runner: Callable[[TrainingJob], JobResult] = run_training_job
        worker_factory = getattr(self.cache, "worker_runner", None)
        if worker_factory is not None:
            runner = worker_factory()
        tracer = get_tracer()
        if not tracer.enabled:
            return list(pool.map(runner, jobs, chunksize=self.chunksize))
        # Tracing is on: wrap the runner so each worker runs its job under
        # a span on a job-local tracer/registry and ships both back with
        # the result.  Parent linkage and sequence are pre-assigned here,
        # so worker span ids are deterministic regardless of which worker
        # process picks which job up.
        parent = tracer.current_span()
        traced_runner = _TracedWorkerRunner(
            runner=runner,
            parent_id=parent.span_id if parent is not None else "",
            baggage=dict(parent.baggage) if parent is not None else {},
        )
        shipped = list(
            pool.map(traced_runner, enumerate(jobs), chunksize=self.chunksize)
        )
        registry = get_registry()
        results: list[JobResult] = []
        for item in shipped:
            results.append(item.result)
            for span_dict in item.spans:
                tracer.emit(Span.from_dict(span_dict))
            registry.merge(item.metrics)
        return results

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        items = list(items)
        if not items:
            return []
        if not self._picklable(fn) or not all(
            self._picklable(item) for item in items
        ):
            warnings.warn(
                "task is not picklable; falling back to serial execution",
                RuntimeWarning,
                stacklevel=2,
            )
            return [fn(item) for item in items]
        pool = self._ensure_pool()
        return list(pool.map(fn, items, chunksize=self.chunksize))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
