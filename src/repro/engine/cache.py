"""Content-addressed caches for the execution engine.

Two caches live here:

* :class:`ResultCache` / :class:`InMemoryResultCache` — maps job
  fingerprints to :class:`~repro.engine.job.JobResult`\\ s, so a training
  with identical data, configuration, and seed is never executed twice.
  Inspired by incremental view maintenance: when nothing a result depends on
  changed, serve the old result.
* :class:`CurveCache` — per-slice fitted learning curves keyed on each
  slice's training-pool fingerprint, powering the estimator's incremental
  mode: only slices whose pools changed since the last estimate are
  re-measured and re-fitted.

:func:`memoized_solve` routes a deterministic solver call through the solve
tier of a persistent cache when the caller's cache has one.

The module imports no numpy: :mod:`repro.engine.job` is imported only where a
dataset is fingerprinted, so ``cache stats`` and the other read-only
commands stay light.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Mapping,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.curves.power_law import FittedCurve
    from repro.engine.job import JobResult
    from repro.slices.sliced_dataset import SlicedDataset


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def snapshot(self) -> dict[str, Any]:
        """All counters as one JSON-compatible dict, read in one pass.

        Surfaces that report several counters together (``/stats``,
        ``cache stats --json``) build on this instead of reading the
        attributes one by one, so no counter in a payload can be mid-update
        relative to another.
        """
        hits, misses, evictions = self.hits, self.misses, self.evictions
        requests = hits + misses
        return {
            "requests": requests,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "hit_rate": round(hits / requests, 4) if requests else 0.0,
        }


@runtime_checkable
class ResultCache(Protocol):
    """Protocol of a content-addressed training-result cache."""

    stats: CacheStats

    def get(self, fingerprint: str) -> JobResult | None:
        """Return the cached result for ``fingerprint``, or ``None``."""
        ...

    def put(self, fingerprint: str, result: JobResult) -> None:
        """Store ``result`` under ``fingerprint``."""
        ...


class InMemoryResultCache:
    """LRU-bounded in-memory :class:`ResultCache`.

    Parameters
    ----------
    max_entries:
        Upper bound on stored results; the least recently used entry is
        evicted first.  ``None`` means unbounded.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._entries: OrderedDict[str, JobResult] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def get(self, fingerprint: str) -> JobResult | None:
        """Look up one result, counting the hit/miss.

        Hits hand out a *copy* marked ``from_cache=True``: the model inside a
        cached result may be shared with many callers, so nobody should
        receive the original object to mutate.
        """
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._entries.move_to_end(fingerprint)
        served = copy.deepcopy(entry)
        served.from_cache = True
        return served

    def stats_snapshot(self) -> dict[str, Any]:
        """All counters in one consistent read (see :meth:`CacheStats.snapshot`)."""
        return self.stats.snapshot()

    def put(self, fingerprint: str, result: JobResult) -> None:
        """Store one result, evicting the LRU entry when over capacity.

        The result is stored by reference: :meth:`get` already copies on
        every read, and executors hand the cache freshly trained results
        they do not mutate afterwards, so a second defensive copy on insert
        would only double the per-training cache cost.
        """
        self._entries[fingerprint] = result
        self._entries.move_to_end(fingerprint)
        if self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def close(self) -> None:
        """Nothing to release; present for parity with disk-backed caches."""


T = TypeVar("T")


def memoized_solve(
    cache: object,
    kind: str,
    options: Mapping[str, Any],
    inputs: Sequence[Any],
    compute: Callable[[], T],
) -> T:
    """``compute()``, through ``cache``'s solve tier when it has one.

    Only :class:`~repro.engine.diskcache.SqliteResultCache` has a solve tier
    (:meth:`~repro.engine.diskcache.SqliteResultCache.solve`); with an
    in-memory cache, or none, the solver simply runs.
    """
    solve = getattr(cache, "solve", None)
    return compute() if solve is None else solve(kind, options, inputs, compute)


def pool_fingerprints(sliced: "SlicedDataset") -> dict[str, str]:
    """Per-slice content hashes of a dataset's current training pools."""
    from repro.engine.job import fingerprint_dataset

    return {
        name: fingerprint_dataset(sliced[name].train) for name in sliced.names
    }


@dataclass
class _CurveEntry:
    pool_fingerprint: str
    curve: "FittedCurve"


@dataclass
class CurveCache:
    """Per-slice fitted curves keyed on each slice's training-pool content.

    The estimator's incremental mode asks :meth:`stale_slices` which slices
    actually need re-measurement, reuses :meth:`cached_curves` for the rest,
    and records the refreshed fits with :meth:`update`.
    """

    stats: CacheStats = field(default_factory=CacheStats)
    _entries: dict[str, _CurveEntry] = field(default_factory=dict)
    _last_counted: dict[str, str] = field(default_factory=dict)

    def stale_slices(
        self,
        sliced: "SlicedDataset",
        fingerprints: Mapping[str, str] | None = None,
    ) -> list[str]:
        """Names of slices whose pools changed since the last :meth:`update`.

        Never-seen slices count as stale; the list preserves the dataset's
        slice order.  Pass precomputed per-slice ``fingerprints`` to avoid
        re-hashing pools the caller already fingerprinted.

        Statistics count each *pool-fingerprint transition* once — the
        first time a slice is seen at a given pool content it scores a hit
        (curve already cached for that content) or a miss; re-polling an
        unchanged dataset leaves :attr:`stats` untouched, so hit rates do
        not depend on how often callers ask.
        """
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        stale: list[str] = []
        for name, fingerprint in fingerprints.items():
            entry = self._entries.get(name)
            fresh = entry is not None and entry.pool_fingerprint == fingerprint
            if not fresh:
                stale.append(name)
            if self._last_counted.get(name) != fingerprint:
                self._last_counted[name] = fingerprint
                if fresh:
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
        return stale

    def cached_curves(self, names: Iterable[str]) -> dict[str, "FittedCurve"]:
        """The stored curves for ``names`` (callers pass the non-stale set)."""
        return {name: self._entries[name].curve for name in names}

    def update(
        self,
        sliced: "SlicedDataset",
        curves: Mapping[str, "FittedCurve"],
        fingerprints: Mapping[str, str] | None = None,
    ) -> None:
        """Record freshly fitted ``curves`` against the current pool content."""
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        for name, curve in curves.items():
            self._entries[name] = _CurveEntry(
                pool_fingerprint=fingerprints[name], curve=curve
            )

    def clear(self) -> None:
        """Forget every stored curve (statistics are kept)."""
        self._entries.clear()
        self._last_counted.clear()
