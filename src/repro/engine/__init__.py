"""The parallel training execution engine.

Every model training in the reproduction — the hundreds behind
learning-curve estimation, the evaluation trials, the experiment grids — is
describable as a :class:`~repro.engine.job.TrainingJob`: a dataset, a model
factory, a trainer configuration, and a pre-spawned seed.  This package turns
that observation into infrastructure:

* :mod:`repro.engine.job` — the declarative job spec with content-addressed
  fingerprints, and the single worker function that executes one job.
* :mod:`repro.engine.cache` — a :class:`~repro.engine.cache.ResultCache`
  keyed on job fingerprints so a training with the same data, configuration,
  and seed is never re-run, plus the :class:`~repro.engine.cache.CurveCache`
  powering incremental curve re-estimation.
* :mod:`repro.engine.diskcache` — the persistent tier:
  :class:`~repro.engine.diskcache.SqliteResultCache` (WAL-mode SQLite behind
  a small in-process LRU front) shares content-addressed results and the
  allocator's solver outcomes across processes and restarts, and
  :class:`~repro.engine.diskcache.SqliteCurveCache` does the same for
  fitted curves.
* :mod:`repro.engine.executor` — the :class:`~repro.engine.executor.Executor`
  protocol with :class:`~repro.engine.executor.SerialExecutor` and
  :class:`~repro.engine.executor.ProcessPoolExecutor` backends.  Seeds are
  spawned up-front from the parent RNG, so the two backends produce
  byte-identical results and parallelism is purely a deployment choice.
  :mod:`repro.engine.backends` lists and builds them by name.
* :mod:`repro.engine.factories` — a registry of named, picklable model
  factories so jobs can cross process boundaries and be fingerprinted by a
  stable name.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".backends": ("available_executors", "get_executor"),
        ".cache": (
            "CacheStats",
            "CurveCache",
            "InMemoryResultCache",
            "ResultCache",
        ),
        ".diskcache": (
            "SqliteCurveCache",
            "SqliteResultCache",
            "default_cache_path",
        ),
        ".executor": (
            "Executor",
            "ProcessPoolExecutor",
            "SerialExecutor",
        ),
        ".factories": (
            "MLPFactory",
            "available_model_factories",
            "describe_factory",
            "get_model_factory",
            "register_model_factory",
        ),
        ".job": (
            "JobResult",
            "TrainingJob",
            "fingerprint_dataset",
            "run_training_job",
            "stable_seed",
        ),
    },
)
