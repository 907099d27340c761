"""Persistent, shared result/curve/solve cache on stdlib sqlite3 (WAL mode).

The in-memory caches of :mod:`repro.engine.cache` die with the process, so
every :class:`~repro.engine.executor.ProcessPoolExecutor` worker, every
daemon restart, and every resumed campaign re-pays for work the system has
already performed.  This module makes the cache a durable, content-addressed
materialized view — the incremental-view-maintenance stance of the rest of
the repo: when nothing an answer depends on changed, serve the old answer,
across processes and restarts.

One :class:`SqliteResultCache` file holds three disk tiers, one table each,
all written and read through the same keyed-blob path:

* **results** — training results keyed by job fingerprint
  (``(data, config, seed) -> JobResult``), implementing the
  :class:`~repro.engine.cache.ResultCache` protocol.  A small in-process
  LRU front keeps hot lookups at dictionary speed.
* **curves** — fitted learning curves keyed by ``(estimation context,
  slice name, full-dataset fingerprint)`` (:class:`SqliteCurveCache`), so a
  restarted process serves yesterday's curves for an unchanged dataset
  state instead of re-measuring them.
* **solves** — the outcomes of the allocator's scipy-backed steps (the SLSQP
  allocation, including its failure, and the ``brentq`` change ratio),
  keyed by :func:`solve_key` over the solver options and the exact bytes
  of every input (:meth:`SqliteResultCache.solve`).  A repeated run over a
  filled cache then never imports scipy.

Every write is its own committed transaction, with the same per-append
commit discipline as :class:`repro.campaigns.store.SqliteStore`, so a
``kill -9`` mid-write can lose at most the entry being written, never a
committed one.

Determinism is the product: entries are versioned pickles
(:data:`RESULT_SCHEMA` / :data:`CURVE_SCHEMA` / :data:`SOLVE_SCHEMA`), NumPy
arrays round-trip bitwise through pickle, and a blob that fails to decode or
carries another schema tag is deleted and degrades to a cache *miss* — never
an error, never a wrong answer.  (Like the campaign store's snapshots, blobs
are pickles: only point a cache at files you trust.)

**Staleness boundary.**  Keys address the *inputs* of a computation, not the
code or the libraries that computed it: like job fingerprints, solve keys do
not include the numpy or scipy versions.  After upgrading either (or
changing a solver), run ``cache clear`` so old answers are not served.

Hit/miss/eviction counters live in the database too (one row per tier), so
:meth:`SqliteResultCache.tier_stats` aggregates honestly across every
process that ever touched the file — including pool workers, whose lookups
the parent process cannot see.
"""

from __future__ import annotations

import atexit
import copy
import functools
import hashlib
import os
import pickle
import sqlite3
import threading
import time
import warnings
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.engine.cache import CacheStats, CurveCache, _CurveEntry, pool_fingerprints
from repro.utils.exceptions import ConfigurationError, OptimizationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.curves.power_law import FittedCurve
    from repro.engine.job import JobResult, TrainingJob
    from repro.slices.sliced_dataset import SlicedDataset

#: Version tag stored with every serialized training result.  Bump it when
#: the :class:`~repro.engine.job.JobResult` layout changes; old entries then
#: degrade to misses instead of deserializing into garbage.
RESULT_SCHEMA = "repro.jobresult/1"

#: Version tag stored with every serialized fitted curve.
CURVE_SCHEMA = "repro.curve/1"

#: Version tag stored with every memoized solver outcome.
SOLVE_SCHEMA = "repro.solve/1"

#: Default file name inside a ``--cache-dir`` / ``REPRO_CACHE_DIR`` directory.
CACHE_FILENAME = "cache.sqlite"

#: The keyed-blob tables: table name -> (key column, schema tag).
_TABLES: dict[str, tuple[str, str]] = {
    "results": ("fingerprint", RESULT_SCHEMA),
    "curves": ("curve_key", CURVE_SCHEMA),
    "solves": ("solve_key", SOLVE_SCHEMA),
}

#: Counter rows maintained in the database, in display order.
TIERS = ("memory", *_TABLES)

# ``IF NOT EXISTS`` throughout: a file written before a table existed gains
# it on open and keeps serving its other tables.
_SCHEMA = "".join(
    f"CREATE TABLE IF NOT EXISTS {table} (\n"
    f"    {key} TEXT PRIMARY KEY,\n"
    "    schema      TEXT NOT NULL,\n"
    "    payload     BLOB NOT NULL,\n"
    "    size        INTEGER NOT NULL,\n"
    "    created_at  REAL NOT NULL,\n"
    "    last_access REAL NOT NULL\n"
    ");\n"
    f"CREATE INDEX IF NOT EXISTS idx_{table}_last_access ON {table}(last_access);\n"
    for table, (key, _) in _TABLES.items()
) + """
CREATE TABLE IF NOT EXISTS counters (
    tier      TEXT PRIMARY KEY,
    hits      INTEGER NOT NULL DEFAULT 0,
    misses    INTEGER NOT NULL DEFAULT 0,
    evictions INTEGER NOT NULL DEFAULT 0
);
"""

#: What pickling a value that cannot pickle raises (a lambda, a lock, a
#: local class); any other error is a bug and propagates.
_UNPICKLABLE = (pickle.PicklingError, TypeError, AttributeError)


def default_cache_path(cache_dir: str) -> str:
    """The cache file used for a ``--cache-dir``/``REPRO_CACHE_DIR`` directory."""
    return os.path.join(cache_dir, CACHE_FILENAME)


def solve_key(kind: str, options: Mapping[str, Any], inputs: Sequence[Any]) -> str:
    """Content address of one deterministic solver call.

    Covers the solver ``kind``, its fixed ``options`` and every input: an
    array contributes its dtype, shape and bytes, anything else its
    ``repr``.  Two calls share a key exactly when the solver sees the same
    bits.
    """
    digest = hashlib.sha256(kind.encode())
    for name in sorted(options):
        digest.update(f"\x1f{name}={options[name]!r}".encode())
    for value in inputs:
        if hasattr(value, "tobytes"):
            digest.update(f"\x1e{value.dtype.str}{value.shape}".encode())
            digest.update(value.tobytes())
        else:
            digest.update(f"\x1e{value!r}".encode())
    return digest.hexdigest()


class SqliteResultCache:
    """Disk-backed, content-addressed :class:`~repro.engine.cache.ResultCache`.

    Two tiers answer every result lookup:

    * a small in-process LRU **front** (``memory_entries`` deserialized
      results, served copy-on-read exactly like
      :class:`~repro.engine.cache.InMemoryResultCache`), and
    * the **disk** tier: one WAL-mode SQLite file, safely shared by any
      number of threads (one connection serialized by an RLock, mirroring
      :class:`repro.campaigns.store.SqliteStore`) and any number of
      *processes*, each holding its own :class:`SqliteResultCache` over the
      same path.

    The same file also holds the curve tier (:meth:`store_curve` /
    :meth:`load_curve`) and the solve tier (:meth:`solve`).

    Parameters
    ----------
    path:
        The cache database file (created on first use, parent directory
        included).  ``":memory:"`` works for tests but defeats persistence.
    memory_entries:
        Capacity of the in-process LRU front; ``None`` means unbounded,
        which is rarely what a long-lived daemon wants.
    """

    def __init__(self, path: str, memory_entries: int | None = 128) -> None:
        if memory_entries is not None and memory_entries <= 0:
            raise ConfigurationError(
                f"memory_entries must be positive or None, got {memory_entries}"
            )
        self.path = str(path)
        self.memory_entries = memory_entries
        parent = os.path.dirname(self.path)
        if parent and self.path != ":memory:":
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self._conn:
            self._conn.executescript(_SCHEMA)
        self._front: OrderedDict[str, JobResult] = OrderedDict()
        # Unflushed per-tier counter deltas.  Memory-front hits only bump a
        # Python int (the O(µs) hot path); deltas ride along with the next
        # disk transaction (or an explicit flush/close/stats read).
        self._deltas: dict[str, CacheStats] = {tier: CacheStats() for tier in TIERS}
        self._closed = False

    # -- the ResultCache protocol -------------------------------------------------
    def get(self, fingerprint: str, *, count_miss: bool = True) -> JobResult | None:
        """Serve one result from the front or the disk tier, or ``None``.

        Hits hand out an independent copy marked ``from_cache=True``.  A
        blob that fails to deserialize or carries a different schema tag is
        deleted and reported as a miss — degraded, never raised.

        ``count_miss=False`` suppresses the disk-tier miss counter: pool
        workers re-check the cache for jobs whose miss the parent process
        already counted, so without it every pooled training would count
        twice.
        """
        from repro.engine.job import JobResult

        with self._lock:
            front = self._front.get(fingerprint)
            if front is not None:
                self._front.move_to_end(fingerprint)
                self._deltas["memory"].hits += 1
                return self._serve(front)
            self._deltas["memory"].misses += 1
            result = self._load_blob(
                "results", fingerprint, expect=JobResult, count_miss=count_miss
            )
            if result is not None:
                self._remember(fingerprint, result)
                return self._serve(result)
            return None

    def put(self, fingerprint: str, result: JobResult) -> None:
        """Persist one result (committed transaction) and front it.

        A result whose payload cannot pickle (e.g. an exotic caller tag)
        degrades to front-only caching with a warning — the disk tier only
        ever holds entries it can serve back.
        """
        with self._lock:
            if not self._store_blob("results", fingerprint, result):
                warnings.warn(
                    "training result is not picklable; cached in memory only",
                    RuntimeWarning,
                    stacklevel=2,
                )
            self._remember(fingerprint, result)

    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT count(*) FROM results").fetchone()
        return int(row[0])

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            if fingerprint in self._front:
                return True
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE fingerprint = ?", (fingerprint,)
            ).fetchone()
        return row is not None

    # -- statistics ---------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Aggregated view for the :class:`ResultCache` protocol.

        ``hits`` are trainings avoided (front + disk, summed across every
        process sharing the file); ``misses`` are disk-tier misses — every
        top-level miss falls through both tiers, so the two coincide and
        front misses that the disk served are not double-counted.
        """
        tiers = self.tier_stats()
        memory, disk = tiers["memory"], tiers["results"]
        return CacheStats(
            hits=memory.hits + disk.hits,
            misses=disk.misses,
            evictions=memory.evictions + disk.evictions,
        )

    def stats_snapshot(self) -> dict[str, Any]:
        """All aggregated counters in one consistent read.

        One :meth:`tier_stats` pass (a single locked flush + query) feeds
        every number, so the payload cannot tear across a concurrent
        update the way four separate :attr:`stats` reads could.
        """
        tiers = self.tier_stats()
        memory, disk = tiers["memory"], tiers["results"]
        return CacheStats(
            hits=memory.hits + disk.hits,
            misses=disk.misses,
            evictions=memory.evictions + disk.evictions,
        ).snapshot()

    def tier_stats(self) -> dict[str, CacheStats]:
        """Cumulative per-tier counters, aggregated across processes."""
        with self._lock:
            with self._conn:
                self._flush_locked()
            rows = self._conn.execute(
                "SELECT tier, hits, misses, evictions FROM counters"
            ).fetchall()
        stats = {tier: CacheStats() for tier in TIERS}
        for tier, hits, misses, evictions in rows:
            stats[tier] = CacheStats(
                hits=int(hits), misses=int(misses), evictions=int(evictions)
            )
        return stats

    def entry_stats(self) -> dict[str, dict[str, int]]:
        """Per-table entry counts and payload bytes (for ``cache stats``)."""
        with self._lock:
            tables = {}
            for table in _TABLES:
                count, size = self._conn.execute(
                    f"SELECT count(*), coalesce(sum(size), 0) FROM {table}"
                ).fetchone()
                tables[table] = {"entries": int(count), "size_bytes": int(size)}
        return tables

    def flush(self) -> None:
        """Persist any buffered counter deltas (front hits) to the file."""
        with self._lock:
            if self._closed:
                return
            with self._conn:
                self._flush_locked()

    def _flush_locked(self) -> None:
        """Add unflushed deltas to the shared counter rows (inside a txn)."""
        for tier, delta in self._deltas.items():
            if not (delta.hits or delta.misses or delta.evictions):
                continue
            self._conn.execute(
                "INSERT INTO counters (tier, hits, misses, evictions) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(tier) DO UPDATE SET "
                "hits = hits + excluded.hits, "
                "misses = misses + excluded.misses, "
                "evictions = evictions + excluded.evictions",
                (tier, delta.hits, delta.misses, delta.evictions),
            )
            self._deltas[tier] = CacheStats()

    # -- maintenance --------------------------------------------------------------
    def clear(self) -> None:
        """Drop every stored result, curve and solve (counters are kept)."""
        with self._lock:
            with self._conn:
                for table in _TABLES:
                    self._conn.execute(f"DELETE FROM {table}")
            self._front.clear()

    def clear_all(self) -> dict[str, int]:
        """Drop entries *and* reset counters; returns what was removed."""
        with self._lock:
            removed = self.entry_stats()
            with self._conn:
                for table in _TABLES:
                    self._conn.execute(f"DELETE FROM {table}")
                self._conn.execute("DELETE FROM counters")
            for delta in self._deltas.values():
                delta.hits = delta.misses = delta.evictions = 0
            self._front.clear()
        return {
            **{f"removed_{table}": removed[table]["entries"] for table in _TABLES},
            "freed_bytes": sum(table["size_bytes"] for table in removed.values()),
        }

    def gc(self, max_mb: float) -> dict[str, int]:
        """Evict least-recently-accessed entries until the payload fits.

        Walks every disk tier together by ``last_access`` (oldest first)
        and deletes until total payload size is at most ``max_mb``
        megabytes.  Evictions count into the disk tiers' shared counters.
        """
        if max_mb < 0:
            raise ConfigurationError(f"max_mb must be >= 0, got {max_mb}")
        limit = int(max_mb * 1024 * 1024)
        removed = dict.fromkeys(_TABLES, 0)
        freed = 0
        with self._lock:
            total = sum(
                table["size_bytes"] for table in self.entry_stats().values()
            )
            if total > limit:
                rows = self._conn.execute(
                    " UNION ALL ".join(
                        f"SELECT '{table}' AS tbl, {column} AS key, size, last_access"
                        f" FROM {table}"
                        for table, (column, _) in _TABLES.items()
                    )
                    + " ORDER BY last_access, key"
                ).fetchall()
                with self._conn:
                    for table, key, size, _ in rows:
                        if total <= limit:
                            break
                        column, _ = _TABLES[table]
                        self._conn.execute(
                            f"DELETE FROM {table} WHERE {column} = ?", (key,)
                        )
                        self._front.pop(key, None)
                        self._deltas[table].evictions += 1
                        removed[table] += 1
                        freed += int(size)
                        total -= int(size)
                    self._flush_locked()
        return {
            **{f"removed_{table}": count for table, count in removed.items()},
            "freed_bytes": freed,
            "remaining_bytes": total,
        }

    # -- the curve tier -----------------------------------------------------------
    def store_curve(self, curve_key: str, curve: "FittedCurve") -> None:
        """Persist one fitted curve under its content-addressed key.

        A curve that cannot pickle is simply not persisted (the in-memory
        curve cache still holds it).
        """
        self._store_blob("curves", curve_key, curve)

    def load_curve(self, curve_key: str) -> "FittedCurve | None":
        """One stored curve, or ``None`` (corruption degrades to a miss)."""
        return self._load_blob("curves", curve_key)

    # -- the solve tier -----------------------------------------------------------
    def solve(
        self,
        kind: str,
        options: Mapping[str, Any],
        inputs: Sequence[Any],
        compute: Callable[[], Any],
    ) -> Any:
        """``compute()``, served from the solve tier when already stored.

        ``compute`` must be a deterministic function of ``kind``,
        ``options`` and ``inputs`` (see :func:`solve_key`).  Both of its
        outcomes are stored: the value it returns, and an
        :class:`~repro.utils.exceptions.OptimizationError` it raises, which
        a later hit raises again with the same message — so a caller's
        fallback path replays without running the solver.
        """
        key = solve_key(kind, options, inputs)
        outcome = self._load_blob("solves", key, expect=tuple)
        if outcome is None:
            try:
                outcome = ("ok", compute())
            except OptimizationError as error:
                outcome = ("failed", str(error))
            self._store_blob("solves", key, outcome)
        status, value = outcome
        if status == "failed":
            raise OptimizationError(value)
        return value

    # -- executor integration -----------------------------------------------------
    def worker_runner(self) -> Callable[[TrainingJob], JobResult]:
        """A picklable job runner that shares this cache file across workers.

        :class:`~repro.engine.executor.ProcessPoolExecutor` maps it over the
        cache-missed jobs: each worker process opens its own read/write
        connection to the same WAL file, re-checks the fingerprint (another
        process may have trained it since the parent's miss), and persists
        fresh results immediately — so no cross-process result is ever
        retrained, and a training that finished before ``kill -9`` survives
        for whoever runs next.
        """
        return functools.partial(run_training_job_shared, self.path)

    # -- internals: the keyed-blob path every tier shares -------------------------
    def _store_blob(self, table: str, key: str, value: Any) -> bool:
        """Persist ``value`` under ``key`` in one committed transaction.

        Returns ``False`` (and writes nothing) when ``value`` cannot pickle.
        """
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except _UNPICKLABLE:
            return False
        column, schema = _TABLES[table]
        now = time.time()
        with self._lock:
            with self._conn:
                self._conn.execute(
                    f"INSERT OR REPLACE INTO {table} "
                    f"({column}, schema, payload, size, created_at, last_access) "
                    "VALUES (?, ?, ?, ?, ?, ?)",
                    (key, schema, sqlite3.Binary(payload), len(payload), now, now),
                )
                self._flush_locked()
        return True

    def _load_blob(
        self,
        table: str,
        key: str,
        *,
        expect: type | tuple[type, ...] = object,
        count_miss: bool = True,
    ) -> Any:
        """The value stored under ``key``, or ``None`` on a miss.

        A row with another schema tag, a payload that fails to unpickle, or
        a value that is not an ``expect`` instance is deleted — so the
        recomputation this miss triggers can refill the slot — and counted
        as an eviction of its tier, next to the miss.
        """
        column, schema = _TABLES[table]
        with self._lock:
            row = self._conn.execute(
                f"SELECT schema, payload FROM {table} WHERE {column} = ?", (key,)
            ).fetchone()
            value = None
            if row is not None:
                value = _decode(row, schema, expect)
                if value is None:
                    with self._conn:
                        self._conn.execute(
                            f"DELETE FROM {table} WHERE {column} = ?", (key,)
                        )
                    self._deltas[table].evictions += 1
            if value is None:
                if count_miss:
                    self._deltas[table].misses += 1
                return None
            self._deltas[table].hits += 1
            with self._conn:
                self._conn.execute(
                    f"UPDATE {table} SET last_access = ? WHERE {column} = ?",
                    (time.time(), key),
                )
                self._flush_locked()
        return value

    def _remember(self, fingerprint: str, result: JobResult) -> None:
        """Insert into the LRU front, evicting (and counting) when full."""
        self._front[fingerprint] = result
        self._front.move_to_end(fingerprint)
        if self.memory_entries is not None and len(self._front) > self.memory_entries:
            self._front.popitem(last=False)
            self._deltas["memory"].evictions += 1

    @staticmethod
    def _serve(result: JobResult) -> JobResult:
        served = copy.deepcopy(result)
        served.from_cache = True
        return served

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        """Flush buffered counters and release the connection."""
        with self._lock:
            if self._closed:
                return
            with self._conn:
                self._flush_locked()
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "SqliteResultCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _decode(row: tuple, schema: str, expect: type | tuple[type, ...]) -> Any:
    """Unpickle one ``(schema, payload)`` row, or ``None`` if it is unusable."""
    tag, payload = row
    if tag != schema:
        return None
    try:
        value = pickle.loads(payload)
    except Exception:
        # The cache file is the trust boundary: a damaged payload can raise
        # nearly any exception from inside the unpickler (UnpicklingError,
        # EOFError, ValueError, OverflowError, MemoryError, ImportError, ...).
        # Every one means "this row is unusable"; the caller deletes the row
        # and counts it as an eviction, so the failure stays visible.
        return None
    return value if isinstance(value, expect) else None


#: One cache handle per file per worker process, reused across batches.
_WORKER_CACHES: dict[str, SqliteResultCache] = {}


def _worker_cache(path: str) -> SqliteResultCache:
    cache = _WORKER_CACHES.get(path)
    if cache is None:
        # A small front is plenty: within one batch every fingerprint is
        # distinct, so the front only helps across batches.
        cache = SqliteResultCache(path, memory_entries=8)
        _WORKER_CACHES[path] = cache
        atexit.register(cache.close)
    return cache


def run_training_job_shared(path: str, job: TrainingJob) -> JobResult:
    """Worker-side job execution against the shared cache at ``path``.

    Module-level (and bound to a plain path via :func:`functools.partial`)
    so it pickles across the process-pool boundary.  The re-check lookup
    passes ``count_miss=False`` — the parent already counted this job's
    miss, so only the cross-process hits it discovers add to the shared
    counters.
    """
    from repro.engine.job import run_training_job

    cache = _worker_cache(path)
    hit = cache.get(job.fingerprint, count_miss=False)
    if hit is not None:
        hit.tag = job.tag
        hit.fingerprint = job.fingerprint
        return hit
    result = run_training_job(job)
    result.fingerprint = job.fingerprint
    cache.put(job.fingerprint, result)
    return result


def dataset_fingerprint(fingerprints: Mapping[str, str]) -> str:
    """Content hash of the *whole* dataset (every slice's pool).

    A slice's fitted curve depends on every pool, not just its own: the
    amortized protocol trains one model on fractions of *all* slices, and
    the exhaustive protocol trains on (subset of one slice) + (all others in
    full).  Persisted curves are therefore addressed by the full dataset
    state — keying by the slice's own pool would let a later refit (same
    pool, different neighbours) overwrite the earlier curve, and a restarted
    run would hydrate the wrong one.
    """
    joined = "|".join(f"{name}:{fp}" for name, fp in sorted(fingerprints.items()))
    return hashlib.sha256(joined.encode()).hexdigest()


def curve_key(context: str, name: str, dataset_key: str) -> str:
    """Content address of one cached curve.

    ``context`` (estimation seed/config) + the slice name + the full dataset
    fingerprint: two runs share a slot exactly when they would fit
    byte-identical curves.
    """
    digest = hashlib.sha256(f"{context}\x1f{name}\x1f{dataset_key}".encode())
    return digest.hexdigest()


class SqliteCurveCache(CurveCache):
    """A :class:`~repro.engine.cache.CurveCache` with a shared disk tier.

    The in-memory per-slice table (and its transition-counted stats) work
    exactly as in the base class; on a memory miss the disk tier of the
    owning :class:`SqliteResultCache` is consulted under
    :func:`curve_key`.  Each :meth:`update` persists the *entire* current
    table under the current dataset fingerprint — including slices it did
    not refit — and each new dataset state hydrates *every* slice from
    that state's rows, so a restarted run holds, at every dataset state it
    passes through, exactly the curve table an uninterrupted in-memory run
    would be holding at that point.  (In-process the probes are no-ops: a
    state's rows only exist once its refit already ran.)
    """

    def __init__(self, backend: SqliteResultCache, context: str) -> None:
        super().__init__()
        self._backend = backend
        self._context = str(context)
        #: The last dataset state probed — each state is probed exactly
        #: once (pools only grow, states never come back), so repeated
        #: polls neither re-read the file nor inflate counters.
        self._hydrated_key: str | None = None

    def stale_slices(
        self,
        sliced: "SlicedDataset",
        fingerprints: Mapping[str, str] | None = None,
    ) -> list[str]:
        """Hydrate memory from this dataset state's rows, then delegate.

        Hydration covers every slice, not just per-pool-stale ones: one
        changed pool sends the estimator through a refit wave whose outputs
        land on *all* slices (amortized protocol), and keeping any slice's
        pre-wave curve here would both diverge from the uninterrupted run
        and suppress the wave's staleness trigger.
        """
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        dataset_key = dataset_fingerprint(fingerprints)
        if dataset_key != self._hydrated_key:
            self._hydrated_key = dataset_key
            for name, fingerprint in fingerprints.items():
                curve = self._backend.load_curve(
                    curve_key(self._context, name, dataset_key)
                )
                if curve is not None:
                    self._entries[name] = _CurveEntry(
                        pool_fingerprint=fingerprint, curve=curve
                    )
        return super().stale_slices(sliced, fingerprints=fingerprints)

    def update(
        self,
        sliced: "SlicedDataset",
        curves: Mapping[str, "FittedCurve"],
        fingerprints: Mapping[str, str] | None = None,
    ) -> None:
        """Record fresh fits in memory, persist the full table to disk."""
        if fingerprints is None:
            fingerprints = pool_fingerprints(sliced)
        super().update(sliced, curves, fingerprints=fingerprints)
        dataset_key = dataset_fingerprint(fingerprints)
        for name in fingerprints:
            entry = self._entries.get(name)
            if entry is not None:
                self._backend.store_curve(
                    curve_key(self._context, name, dataset_key), entry.curve
                )
