#!/usr/bin/env python3
"""End-to-end benchmark of the Slice Tuner reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper_table2 --seed 0 --seconds 30 --trace 0

Workloads (``interaction_map.json`` records why each one was chosen and
which layer each should stress):

* ``paper_table2`` -- ``compare_methods`` on the paper's Table 2
  configuration, in-process: four datasets, Original plus the four Slice
  Tuner methods, one trial each.  One pass is the 20-cell grid.
* ``campaigns_resume`` -- the builtin campaign suite for several derived
  seeds under one ``CampaignScheduler`` over a ``SqliteStore``; the
  scheduler is drained half way, the store reopened and every campaign
  resumed with ``add_existing`` and run to completion.
* ``cli_session`` -- ``python -m repro.cli`` subprocesses, one at a time:
  a cold ``run`` on an empty cache, warm runs on that cache, and
  read-only queries against a campaign store built during set-up.

Load comes from one closed-loop client and the ``SerialExecutor``.  With
``--trace 0`` a run repeats whole passes for ``--seconds`` and reports the
end-to-end metrics; with ``--trace 1`` it runs a warm-up pass, then traced
and untraced passes in turn, and reports the per-layer metrics taken by
``tracer.py``.  The last
line of standard output is one JSON object.  Every output is checked; a
failed check counts the operation as failed instead of stopping the run.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

# One closed-loop client on one core.  The BLAS thread count also changes
# results in the last bits (so the committed digests assume one thread) and
# a second thread only adds noise on a small shared machine.  Set before
# numpy loads; every child process inherits it.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
INTERACTION_MAP = os.path.join(HERE, "interaction_map.json")

#: The seed whose per-operation digests are committed in ``reference.json``.
DEFAULT_SEED = 0
#: Set-up is repeated in this many fresh processes; ``setup_s`` is the median.
SETUP_SAMPLES = 5
#: Fresh interpreters that time ``import repro.cli``.
STARTUP_PROBES = 5

STARTUP_PROBE = (
    "import json, sys, time\n"
    "before = set(sys.modules)\n"
    "start = time.perf_counter()\n"
    "import repro.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "loaded = set(sys.modules) - before\n"
    "print(json.dumps({'import_s': elapsed, 'modules': len(loaded),\n"
    "    'scipy': sum(1 for m in loaded if m == 'scipy' or m.startswith('scipy.'))}))\n"
)


def digest(value) -> str:
    """Content hash of a JSON-serialisable value (floats at full precision)."""
    canonical = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def finite(*values) -> bool:
    return all(value is None or math.isfinite(value) for value in values)


def report_ok(report) -> bool:
    """A fairness report is absent or has finite loss and EERs."""
    if report is None:
        return True
    if not isinstance(report, dict):
        report = {"loss": report.loss, "avg_eer": report.avg_eer, "max_eer": report.max_eer}
    return finite(report["loss"], report["avg_eer"], report["max_eer"])


def child_env() -> dict:
    """The environment of every child: the checkout's sources, no repro
    settings inherited from the caller, and bytecode caching on (the
    interpreter's default) so start-up does not depend on the caller's
    PYTHONDONTWRITEBYTECODE."""
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_CACHE_DIR", "REPRO_TRACE_DIR", "PYTHONPATH",
                       "PYTHONDONTWRITEBYTECODE")
    }
    env["PYTHONPATH"] = SRC
    return env


def wait_child(argv, cwd, log_prefix):
    """Run ``argv`` to completion; returns (exit code, stdout, seconds, peak RSS MiB).

    Output goes to files rather than pipes so the process can be reaped
    with ``os.wait4``, which reports that one child's own peak RSS.
    """
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as handle:
        stdout = handle.read()
    if proc.returncode != 0:
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            sys.stderr.write(handle.read()[-2000:])
    return proc.returncode, stdout, elapsed, usage.ru_maxrss / 1024.0


@dataclasses.dataclass
class Pass:
    """One pass over a workload's operations."""

    wall_s: float
    steps: list[float]
    digests: dict[str, str]
    failed: set[str]
    extras: dict[str, list[float]] = dataclasses.field(default_factory=dict)


class Workload:
    """A workload builds its inputs from the seed in ``__init__`` (set-up)."""

    name = ""

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def final_check(self, passes) -> set[str]:
        """Operations that failed a check made once after the measured passes."""
        return set()


# ---------------------------------------------------------------------------
# paper_table2
# ---------------------------------------------------------------------------

#: The Table 2 configuration with the speed settings of benchmarks/conftest.py
#: (copied, so the workload does not change when the tier-1 suite is retuned).
TABLE2_DATASETS = ("fashion_like", "mixed_like", "faces_like", "adult_like")
TABLE2_METHODS = ("oneshot", "aggressive", "moderate", "conservative")
TABLE2_BUDGETS = {"fashion_like": 2000.0, "mixed_like": 2000.0, "faces_like": 1200.0, "adult_like": 300.0}
TABLE2_BASE_SIZES = {"fashion_like": 150, "mixed_like": 120, "faces_like": 200, "adult_like": 120}


class PaperTable2(Workload):
    """Operations are grid cells; a step is one cell."""

    name = "paper_table2"

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.engine.executor import SerialExecutor
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import compare_methods

        self._compare = compare_methods
        self._serial = SerialExecutor
        self.configs = [
            ExperimentConfig(
                dataset=dataset,
                scenario="basic",
                budget=TABLE2_BUDGETS[dataset],
                methods=TABLE2_METHODS,
                lam=1.0,
                trials=1,
                validation_size=120,
                curve_points=4,
                curve_repeats=1,
                epochs=25,
                seed=seed,
                extra={"base_size": TABLE2_BASE_SIZES[dataset]},
            )
            for dataset in TABLE2_DATASETS
        ]

    def run_pass(self, tracer=None) -> Pass:
        steps: list[float] = []
        digests: dict[str, str] = {}
        failed: set[str] = set()

        class TimedCells(self._serial):
            """The serial executor, timing each (method, trial) cell."""

            def map(self, fn, items):
                outcomes = []
                for item in items:
                    config, method, trial = item
                    op = f"{config.dataset}/{method}/{trial}"
                    if tracer is not None:
                        tracer.op = op
                    start = time.perf_counter()
                    outcome = fn(item)
                    steps.append(time.perf_counter() - start)
                    digests[op] = digest(dataclasses.asdict(outcome))
                    values = (outcome.loss, outcome.avg_eer, outcome.max_eer,
                              outcome.initial_loss, outcome.initial_avg_eer, outcome.initial_max_eer)
                    if not (outcome.spent <= config.budget and finite(*values)):
                        failed.add(op)
                    outcomes.append(outcome)
                return outcomes

        start = time.perf_counter()
        for config in self.configs:
            try:
                self._compare(config, include_original=True, executor=TimedCells())
            except Exception as error:  # noqa: BLE001 - a failed cell is counted, not fatal
                print(f"paper_table2: {config.dataset} failed: {error!r}", file=sys.stderr)
                for method in ("original", *config.methods):
                    op = f"{config.dataset}/{method}/0"
                    failed.add(op)
                    digests.setdefault(op, "failed")
        return Pass(time.perf_counter() - start, steps, digests, failed)

    def inputs(self) -> list:
        from repro.experiments.runner import prepare_named_instance

        generated = []
        for config in self.configs:
            sliced, _ = prepare_named_instance(config, config.seed)
            train = sliced.combined_train()
            generated.append(hashlib.sha256(train.features.tobytes()).hexdigest())
        return [dataclasses.asdict(config) for config in self.configs] + generated



# ---------------------------------------------------------------------------
# campaigns_resume
# ---------------------------------------------------------------------------

class CampaignsResume(Workload):
    """Operations are campaigns; a step is one ``CampaignScheduler.step``."""

    name = "campaigns_resume"
    #: Copies of the three-campaign default suite, each from its own seed.
    #: How long a campaign iterates depends on its seed; 108 campaigns (about
    #: 290 scheduler steps per pass) keep a pass's total work within a few
    #: percent across seeds.
    SUITES = 36

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.campaigns import CampaignScheduler, SqliteStore
        from repro.experiments.runner import default_campaign_specs

        self._scheduler = CampaignScheduler
        self._store = SqliteStore
        self.workdir = workdir
        self.specs = []
        for suite in range(self.SUITES):
            suite_seed = 1000 * seed + 3 * suite
            self.specs += [
                dataclasses.replace(spec, name=f"{spec.name}-s{suite_seed}")
                for spec in default_campaign_specs(suite_seed)
            ]
        self.budget = sum(spec.budget for spec in self.specs)

    def _step(self, scheduler, steps, failed):
        start = time.perf_counter()
        try:
            tick = scheduler.step()
        except Exception as error:  # noqa: BLE001 - the scheduler parks the campaign
            campaign_id = getattr(error, "campaign_id", "?")
            print(f"campaigns_resume: {campaign_id} failed: {error!r}", file=sys.stderr)
            failed.add(campaign_id)
            tick = True
        steps.append(time.perf_counter() - start)
        return tick

    def run_pass(self, tracer=None, interrupt: bool = True) -> Pass:
        steps: list[float] = []
        failed_ids: set[str] = set()
        path = os.path.join(tempfile.mkdtemp(dir=self.workdir), "campaigns.db")
        start = time.perf_counter()
        store = self._store(path)
        scheduler = self._scheduler(store=store)
        for spec in self.specs:
            scheduler.add(spec)
        if interrupt:
            while sum(c.spent for c in scheduler.campaigns) < 0.5 * self.budget:
                if self._step(scheduler, steps, failed_ids) is None:
                    break
            scheduler.drain()
            store.close()
            reopened = time.perf_counter()
            store = self._store(path)
            scheduler = self._scheduler(store=store)
            for record in store.list_campaigns():
                scheduler.add_existing(record.campaign_id)
            self._step(scheduler, steps, failed_ids)
            resume_s = time.perf_counter() - reopened
        while self._step(scheduler, steps, failed_ids) is not None:
            pass
        digests: dict[str, str] = {}
        failed: set[str] = set()
        for campaign in scheduler.campaigns:
            op = campaign.spec.name
            if campaign.campaign_id in failed_ids or not campaign.is_done:
                failed.add(op)
                digests[op] = "failed"
                continue
            result = campaign.result()
            digests[op] = digest(result.to_dict())
            ok = result.spent <= campaign.spec.budget
            ok = ok and report_ok(result.initial_report) and report_ok(result.final_report)
            if not ok:
                failed.add(op)
        store.close()
        wall_s = time.perf_counter() - start
        shutil.rmtree(os.path.dirname(path))
        extras = {"resume_s": [resume_s]} if interrupt else {}
        return Pass(wall_s, steps, digests, failed, extras)

    def final_check(self, passes) -> set[str]:
        """Drained and resumed campaigns must equal an uninterrupted run."""
        uninterrupted = self.run_pass(interrupt=False)
        return {
            op for op, value in uninterrupted.digests.items()
            if value != passes[0].digests.get(op)
        } | uninterrupted.failed

    def inputs(self) -> list:
        return [spec.to_dict() for spec in self.specs]



# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

class CliSession(Workload):
    """Operations are CLI commands; a step is one command, start to exit."""

    name = "cli_session"
    WARM_RUNS = 2
    #: Rounds of the four queries per pass, so queries are most of the steps.
    QUERY_ROUNDS = 2
    QUERIES = {
        "report_summary": ["report", "summary", "--json", "--store", "store.db"],
        "monitor_status": ["monitor", "status", "--json", "--store", "store.db"],
        "cache_stats": ["cache", "stats", "--json", "--cache-dir", "cache"],
        "campaign_list": ["campaign", "list", "--store", "store.db"],
    }

    def __init__(self, seed: int, workdir: str) -> None:
        from repro.analytics.refresh import Analytics
        from repro.campaigns import SqliteStore
        from repro.experiments.runner import campaign_suite, default_campaign_specs

        self.workdir = workdir
        self.store_specs = default_campaign_specs(seed)
        with SqliteStore(os.path.join(workdir, "store.db")) as store:
            campaign_suite(store=store, specs=self.store_specs)
            with Analytics(store) as analytics:
                analytics.refresh()
        self.run_args = [
            "run", "--dataset", "adult_like", "--initial-size", "40",
            "--validation-size", "40", "--epochs", "5", "--curve-points", "3",
            "--budget", "120", "--method", "moderate", "--seed", str(seed),
            "--evaluate", "--quiet", "--json", "--cache-dir", "cache",
        ]
        self._rss: list[float] = []

    def _command(self, op, args, tracer):
        log = os.path.join(self.workdir, op)
        if tracer is None:
            argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), log + ".spans", *args]
        code, stdout, elapsed, rss = wait_child(argv, self.workdir, log)
        self._rss.append(rss)
        if tracer is not None and os.path.exists(log + ".spans"):
            with open(log + ".spans", encoding="utf-8") as handle:
                tracer.merge(json.load(handle), op)
        return code, stdout, elapsed

    def run_pass(self, tracer=None) -> Pass:
        shutil.rmtree(os.path.join(self.workdir, "cache"), ignore_errors=True)
        steps: list[float] = []
        digests: dict[str, str] = {}
        failed: set[str] = set()
        extras: dict[str, list[float]] = {"run_cold_s": [], "run_warm_s": [], "query_s": []}
        cold_output = None
        start = time.perf_counter()
        runs = ["run_cold"] + [f"run_warm_{index}" for index in range(1, self.WARM_RUNS + 1)]
        for op in runs:
            code, stdout, elapsed = self._command(op, self.run_args, tracer)
            steps.append(elapsed)
            extras["run_cold_s" if op == "run_cold" else "run_warm_s"].append(elapsed)
            try:
                payload = json.loads(stdout)
                output = {k: v for k, v in payload.items() if k not in ("cache", "trainings_performed")}
                result = payload["result"]
                ok = code == 0 and result["spent"] <= result["budget"]
                ok = ok and report_ok(result["initial_report"]) and report_ok(result["final_report"])
                if op == "run_cold":
                    cold_output = output
                    ok = ok and payload["trainings_performed"] > 0
                else:
                    ok = ok and output == cold_output and payload["trainings_performed"] == 0
            except (ValueError, KeyError, TypeError):
                output, ok = None, False
            digests[op] = digest(output)
            if not ok:
                failed.add(op)
        queries = [
            (f"{kind}_{round_}", args)
            for round_ in range(1, self.QUERY_ROUNDS + 1)
            for kind, args in self.QUERIES.items()
        ]
        for op, args in queries:
            code, stdout, elapsed = self._command(op, args, tracer)
            steps.append(elapsed)
            extras["query_s"].append(elapsed)
            digests[op] = digest(stdout)
            if code != 0 or not stdout.strip():
                failed.add(op)
        return Pass(time.perf_counter() - start, steps, digests, failed, extras)

    def inputs(self) -> list:
        return [self.run_args, [spec.to_dict() for spec in self.store_specs]]

    def peak_rss_mb(self) -> float:
        return max(self._rss)


WORKLOADS = {cls.name: cls for cls in (PaperTable2, CampaignsResume, CliSession)}


# ---------------------------------------------------------------------------
# the harness
# ---------------------------------------------------------------------------

def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def measure(seconds: float, run_pass) -> list[Pass]:
    """Repeat whole passes while the next one is expected to end in time."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            return passes


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its workload being ready."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up of {workload} failed in a fresh process")
    return elapsed


def startup_probes() -> list[dict]:
    probes = []
    for _ in range(STARTUP_PROBES):
        output = subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], cwd=ROOT, env=child_env(),
            check=True, capture_output=True, text=True,
        ).stdout
        probes.append(json.loads(output.splitlines()[-1]))
    return probes


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` in (0, 1).

    A weighted mean of every order statistic, with Beta((n+1)q, (n+1)(1-q))
    weights.  The paper grid has only 20 cells of very different cost, so the
    plain sample median jumps from one cell to another as the seed changes;
    this estimator moves smoothly.  With hundreds of steps it equals the
    sample quantile.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(values)
    n = len(ordered)
    weights = np.diff(betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n))
    return float(weights @ ordered)


def check_ops(passes, reference, seed, bad_ops=frozenset()) -> tuple[int, int]:
    """(attempted, failed) over every operation of every pass.

    An operation fails when its own checks failed, when it is in ``bad_ops``,
    when its digest differs from the first pass (same inputs, so outputs must
    repeat), or, at the default seed, when it differs from the committed
    reference.
    """
    attempted = failed = 0
    first = passes[0].digests
    for run in passes:
        for op, value in run.digests.items():
            attempted += 1
            bad = op in run.failed or op in bad_ops or value != first.get(op)
            if seed == DEFAULT_SEED and reference is not None:
                bad = bad or reference.get(op) != value
            failed += bad
    return attempted, failed


def end_to_end(workload, passes, setup_samples, attempted, failed) -> dict:
    walls = [run.wall_s for run in passes]
    print(f"# {workload.name}: {len(passes)} passes, "
          f"{len(setup_samples)} set-ups, {attempted} operations, {failed} failed")
    return {
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "peak_rss_mb": {"value": workload.peak_rss_mb(), "unit": "MiB"},
        "ok_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
    }


def pooled_median(passes, extra: str) -> float:
    """Median of one per-pass extra timing over all passes; 0 where absent."""
    values = [value for run in passes for value in run.extras.get(extra, [])]
    return statistics.median(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, untraced: list[Pass], traced: list[Pass], probes) -> dict:
    from tracer import BOUNDARY_NAMES, layer_times

    layers = layer_times(tracer.spans)
    counters = tracer.counters
    wall_traced = statistics.median(run.wall_s for run in traced)
    wall_untraced = statistics.median(run.wall_s for run in untraced)
    steps = [step for run in untraced for step in run.steps]
    values: dict[str, tuple[float, str]] = {}
    for name in BOUNDARY_NAMES:
        layer = layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        values[f"{name}.calls"] = (layer["calls"], "count")
        values[f"{name}.self_s"] = (layer["self_s"], "s")
    fit_s = layers["ml.fit"]["total_s"] if "ml.fit" in layers else 0.0
    submits = values["engine.submit.calls"][0]
    jobs = counters["engine.jobs"]
    values.update({
        "ml.fit.examples": (counters["ml.fit.examples"], "count"),
        "ml.fit.examples_per_s": (ratio(counters["ml.fit.examples"], fit_s), "1/s"),
        "engine.jobs": (jobs, "count"),
        "engine.jobs_executed": (counters["engine.jobs_executed"], "count"),
        "engine.wave_width_mean": (ratio(jobs, submits), "jobs"),
        "engine.wave_width_max": (tracer.maxima.get("engine.wave_width_max", 0), "jobs"),
        "engine.cache_hit_ratio": (ratio(jobs - counters["engine.jobs_executed"], jobs), "ratio"),
        "diskcache.hit_ratio": (ratio(counters["diskcache.hits"], values["diskcache.get.calls"][0]), "ratio"),
        "core.optimize.greedy_fallbacks": (counters["core.optimize.greedy_fallbacks"], "count"),
        "acquisition.delivered_ratio": (
            ratio(counters["acquisition.delivered"], counters["acquisition.requested"]), "ratio"),
        "campaigns.snapshot_bytes": (counters["campaigns.snapshot_bytes"], "B"),
        "step_p50_ms": (1000 * quantile(steps, 0.5), "ms"),
        "step_p90_ms": (1000 * quantile(steps, 0.9), "ms"),
        "campaigns.resume_s": (pooled_median(untraced, "resume_s"), "s"),
        "cli.run_cold_s": (pooled_median(untraced, "run_cold_s"), "s"),
        "cli.run_warm_p50_s": (pooled_median(untraced, "run_warm_s"), "s"),
        "cli.query_p50_s": (pooled_median(untraced, "query_s"), "s"),
        "cli.import_s": (statistics.median(p["import_s"] for p in probes), "s"),
        "cli.modules_loaded": (probes[0]["modules"], "count"),
        "cli.scipy_loaded": (probes[0]["scipy"], "count"),
        "bench.wall_untraced_s": (wall_untraced, "s"),
        "bench.wall_traced_s": (wall_traced, "s"),
        "bench.trace_overhead_pct": (100.0 * (wall_traced - wall_untraced) / wall_untraced, "%"),
        "bench.unattributed_s": (
            traced[0].wall_s - sum(layer["self_s"] for layer in layers.values()), "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def self_test(workload, tracer, probes, seed, workdir) -> list[str]:
    """The harness's own predictions; returns the ones that did not hold."""
    from tracer import layer_times

    expected = load_json(INTERACTION_MAP)["workloads"][workload.name]
    layers = layer_times(tracer.spans)
    problems = [
        f"{name} recorded no call" for name in expected["serves"]
        if layers.get(name, {}).get("calls", 0) == 0
    ]
    problems += [
        f"{name} was predicted idle but recorded {layers[name]['calls']} calls"
        for name in layers
        if any(name.startswith(prefix) for prefix in expected["idle"])
    ]
    warm_fits = sum(
        1 for span in tracer.spans
        if span[0] == "ml.fit" and str(span[4]).startswith("run_warm")
    )
    if warm_fits:
        problems.append(f"warm CLI runs trained {warm_fits} models")
    counts = {(probe["modules"], probe["scipy"]) for probe in probes}
    if len(counts) != 1:
        problems.append(f"start-up module counts did not repeat: {sorted(counts)}")
    other_dir = tempfile.mkdtemp(dir=workdir)
    other = type(workload)(seed + 1, other_dir)
    if digest(other.inputs()) == digest(workload.inputs()):
        problems.append("seed and seed + 1 generated the same inputs")
    return problems


def run(args, workload, workdir) -> tuple[dict, int, int, list[str]]:
    reference = load_json(REFERENCE)["workloads"].get(workload.name)
    if not args.trace:
        setup_samples = [setup_probe_seconds(workload.name, args.seed) for _ in range(SETUP_SAMPLES)]
        passes = measure(args.seconds, workload.run_pass)
        mismatched = workload.final_check(passes)
        attempted, failed = check_ops(passes, reference, args.seed, mismatched)
        problems = [f"{op}: resumed run differs from uninterrupted run" for op in sorted(mismatched)]
        return end_to_end(workload, passes, setup_samples, attempted, failed), attempted, failed, problems

    from tracer import Tracer, install

    probes = startup_probes()
    # The first pass warms lazy imports and caches.  Then traced and untraced
    # passes alternate for --seconds, so the overhead compares medians of
    # passes taken close together; the layer metrics come from the first
    # traced pass alone, so they do not depend on how many pairs fit.
    warmup = workload.run_pass()
    tracers, traced, untraced = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        tracers.append(Tracer())
        uninstall = install(tracers[-1])
        try:
            traced.append(workload.run_pass(tracers[-1]))
        finally:
            uninstall()
        untraced.append(workload.run_pass())
        now = time.perf_counter()
        if now - start + (now - pair_start) > args.seconds:
            break
    tracer = tracers[0]
    tracer.dump(os.path.join(WORK, f"spans-{workload.name}-{args.seed}.jsonl"))
    attempted, failed = check_ops([warmup, *traced, *untraced], reference, args.seed)
    problems = [
        f"{op}: traced output differs from untraced"
        for op, value in warmup.digests.items()
        if any(run.digests.get(op) != value for run in traced)
    ]
    problems += self_test(workload, tracer, probes, args.seed, workdir)
    metrics = per_layer(tracer, untraced, traced, probes)
    print(f"# {workload.name}: traced run, {len(traced)} traced and untraced pass pairs, "
          f"{len(tracer.spans)} spans per traced pass, {attempted} operations, {failed} failed")
    return metrics, attempted, failed, problems


def write_reference(names) -> None:
    """Record each workload's per-operation digests at the default seed.

    ``campaigns_resume`` is recorded from an uninterrupted run, so the
    drained-and-resumed runs checked against it prove resume == uninterrupted.
    """
    reference = load_json(REFERENCE) if os.path.exists(REFERENCE) else {"workloads": {}}
    reference["seed"] = DEFAULT_SEED
    for name in names:
        workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{name}-")
        try:
            workload = WORKLOADS[name](DEFAULT_SEED, workdir)
            if name == "campaigns_resume":
                result = workload.run_pass(interrupt=False)
            else:
                result = workload.run_pass()
            if result.failed:
                raise SystemExit(f"{name}: operations failed: {sorted(result.failed)}")
            reference["workloads"][name] = result.digests
        finally:
            shutil.rmtree(workdir)
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print 'ready' and exit (set-up timing)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the default-seed digests of the workload "
                        "(every workload without --workload) in reference.json")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no Python package at {os.path.join(SRC, 'repro')}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    if args.workload is None and not args.write_reference:
        parser.error("--workload is required")
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    if args.write_reference:
        write_reference([args.workload] if args.workload else sorted(WORKLOADS))
        return 0

    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        metrics, attempted, failed, problems = run(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
