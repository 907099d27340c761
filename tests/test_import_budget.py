"""Start-up budget: which modules a command loads, and what survives laziness.

Only curve fitting and the SLSQP allocator need scipy, so scipy is imported
inside the functions that call it, the package ``__init__``s re-export their
names lazily (PEP 562), and each CLI handler imports its own dependencies.
These tests pin that in fresh interpreters, where ``sys.modules`` starts
empty: read-only commands and ``import repro.cli`` load neither numpy nor
scipy, and a repeated ``run`` over a filled ``--cache-dir`` (whose solve tier
memoizes the allocator's scipy steps) loads no scipy.  They assert module
membership only, never wall time.

They also pin what laziness must not change: every registry lists the same
names whether or not the rest of the package was imported, every lazily
re-exported name is the object its defining module holds, and durable
pickles (campaign snapshots, cache rows) written by a fully imported process
load in a process that imported only the module that reads them.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import socket
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Imports every module of the package, as a long-lived process that has
#: touched every subsystem would have.
_FULL_IMPORT = textwrap.dedent(
    """
    import importlib, pkgutil, repro
    for _info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(_info.name)
    """
)

#: Runs one CLI command, then reports its exit code and the scipy modules
#: it loaded as the last line of stdout.
_CLI_PROBE = textwrap.dedent(
    """
    import json, sys
    from repro.cli import main
    code = main(sys.argv[1:])
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"code": code, "scipy": scipy}))
    """
)

_RUN_ARGS = [
    "run", "--dataset", "adult_like", "--initial-size", "40",
    "--validation-size", "40", "--epochs", "5", "--curve-points", "3",
    "--budget", "120", "--method", "moderate", "--seed", "0",
    "--quiet", "--json",
]


def _python(code: str, *args: str, cwd: Path | None = None) -> str:
    """Run ``code`` in a fresh interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


#: Runs one CLI command, then reports its exit code and which of numpy and
#: scipy it loaded as the last line of stdout.
_CLI_LIBRARIES_PROBE = textwrap.dedent(
    """
    import json, sys
    from repro.cli import main
    code = main(sys.argv[1:])
    loaded = sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})
    print(json.dumps({"code": code, "libraries": loaded}))
    """
)

#: The read-only queries of the ``cli_session`` benchmark workload.
_QUERIES = [
    ["cache", "stats", "--json", "--cache-dir", "cache"],
    ["campaign", "list", "--store", "store.db"],
    ["report", "summary", "--json", "--store", "store.db"],
    ["monitor", "status", "--json", "--store", "store.db"],
]


def _last_json(stdout: str):
    return json.loads(stdout.strip().splitlines()[-1])


def _loaded_after(statement: str) -> list[str]:
    """Names of the ``repro``, ``numpy`` and ``scipy`` modules ``statement`` loads."""
    code = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('repro', 'numpy', 'scipy'))))"
    )
    return _last_json(_python(code))


def _cli(*args: str, cwd: Path) -> dict:
    return _last_json(_python(_CLI_PROBE, *args, cwd=cwd))


# -- imports -------------------------------------------------------------------


def test_import_repro_loads_only_the_package_itself():
    assert _loaded_after("import repro") == ["repro", "repro._lazy"]


def test_import_repro_cli_loads_no_scipy():
    loaded = _loaded_after("import repro.cli")
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_import_repro_cli_loads_no_numpy():
    loaded = _loaded_after("import repro.cli")
    assert [m for m in loaded if m.split(".")[0] == "numpy"] == []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    """A small campaign store (with its analytics mirror) and result cache."""
    root = tmp_path_factory.mktemp("queries")
    code = main([
        "campaign", "start", "--name", "tiny", "--budget", "120",
        "--initial-size", "30", "--validation-size", "30", "--epochs", "3",
        "--curve-points", "3", "--store", str(root / "store.db"),
        "--cache-dir", str(root / "cache"), "--quiet",
    ])
    assert code == 0
    assert main(["report", "summary", "--store", str(root / "store.db"), "--quiet"]) == 0
    return root


@pytest.mark.parametrize("argv", _QUERIES, ids=lambda argv: "_".join(argv[:2]))
def test_query_commands_load_no_scipy(workdir, argv):
    probe = _cli(*argv, cwd=workdir)
    assert probe == {"code": 0, "scipy": []}


@pytest.mark.parametrize("argv", _QUERIES, ids=lambda argv: "_".join(argv[:2]))
def test_query_commands_load_no_numpy(workdir, argv):
    probe = _last_json(_python(_CLI_LIBRARIES_PROBE, *argv, cwd=workdir))
    assert probe == {"code": 0, "libraries": []}


def test_remote_list_without_a_server_loads_no_scipy(tmp_path):
    with socket.socket() as sock:  # a port nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    probe = _cli("remote", "list", "--url", f"http://127.0.0.1:{port}", cwd=tmp_path)
    assert probe == {"code": 2, "scipy": []}


def test_run_loads_scipy_and_matches_a_fully_imported_run(tmp_path, capsys):
    stdout = _python(_CLI_PROBE, *_RUN_ARGS, cwd=tmp_path)
    *output, probe = stdout.strip().splitlines()
    probe = json.loads(probe)
    assert probe["code"] == 0
    assert "scipy.optimize" in probe["scipy"]

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    assert main(_RUN_ARGS) == 0
    expected = json.loads(capsys.readouterr().out)
    assert json.loads("\n".join(output)) == expected


@pytest.mark.parametrize(
    "method", ["oneshot", "aggressive", "moderate", "conservative"]
)
def test_warm_run_loads_no_scipy_and_repeats_the_first_run(tmp_path, capsys, method):
    args = [
        "run", "--dataset", "adult_like", "--initial-size", "40",
        "--validation-size", "40", "--epochs", "5", "--curve-points", "3",
        "--budget", "120", "--method", method, "--seed", "0", "--evaluate",
        "--quiet", "--json", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["trainings_performed"] > 0

    stdout = _python(_CLI_LIBRARIES_PROBE, *args, cwd=tmp_path)
    *output, probe = stdout.strip().splitlines()
    assert json.loads(probe) == {"code": 0, "libraries": ["numpy"]}
    second = json.loads("\n".join(output))
    assert second["trainings_performed"] == 0
    ignored = ("cache", "trainings_performed")
    assert {k: v for k, v in second.items() if k not in ignored} == {
        k: v for k, v in first.items() if k not in ignored
    }


# -- PEP 562 re-exports --------------------------------------------------------

#: Every package whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = [
    "repro",
    "repro.acquisition",
    "repro.analytics",
    "repro.bandit",
    "repro.campaigns",
    "repro.core",
    "repro.curves",
    "repro.datasets",
    "repro.engine",
    "repro.experiments",
    "repro.fairness",
    "repro.ml",
    "repro.monitor",
    "repro.serve",
    "repro.slices",
    "repro.slices.methods",
    "repro.utils",
]


def _all_modules() -> list:
    return [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package_name):
    package = importlib.import_module(package_name)
    modules = [m for m in _all_modules() if not hasattr(m, "__path__")]
    for name in package.__all__:
        if name == "__version__":
            continue
        value = getattr(package, name)
        holders = [m.__name__ for m in modules if vars(m).get(name, object()) is value]
        assert holders, f"{package_name}.{name} is held by no module"
        defining = getattr(value, "__module__", None)
        if callable(value) and getattr(value, "__name__", None) == name:
            assert defining in holders, (package_name, name, defining)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_dir_lists_all_and_unknown_names_raise(package_name):
    package = importlib.import_module(package_name)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_star_import_binds_every_name_in_all():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(repro, name) for name in repro.__all__)


# -- registries and durable formats under partial imports ----------------------

#: ``(defining module, listing function)`` of every registry.
REGISTRIES = [
    ("repro.core.registry", "available_strategies"),
    ("repro.acquisition.providers", "available_sources"),
    ("repro.slices.discovery", "available_discovery_methods"),
    ("repro.monitor.rules", "available_rules"),
    ("repro.engine.executor", "available_executors"),
    ("repro.engine.factories", "available_model_factories"),
    ("repro.datasets.registry", "available_tasks"),
]


def _listing(module: str, function: str) -> str:
    return (
        f"import json\nfrom {module} import {function}\n"
        f"print(json.dumps(list({function}())))"
    )


@pytest.fixture(scope="module")
def full_listings() -> dict:
    code = _FULL_IMPORT + "import json\nlistings = {}\n" + "".join(
        f"from {module} import {function}\n"
        f"listings[{function!r}] = list({function}())\n"
        for module, function in REGISTRIES
    ) + "print(json.dumps(listings))"
    return _last_json(_python(code))


@pytest.mark.parametrize("module,function", REGISTRIES, ids=[f for _, f in REGISTRIES])
def test_registry_lists_the_same_names_after_a_partial_import(
    full_listings, module, function
):
    assert _last_json(_python(_listing(module, function))) == full_listings[function]
    assert full_listings[function]


def test_campaign_snapshot_resumes_after_importing_only_the_campaign_module(tmp_path):
    store = str(tmp_path / "store.db")
    spec = (
        "CampaignSpec(name='partial', dataset='adult_like', method='moderate', "
        "budget=600.0, seed=0, base_size=50, validation_size=50, epochs=8, "
        "curve_points=3)"
    )
    writer = _FULL_IMPORT + textwrap.dedent(
        f"""
        import sys
        from repro.campaigns import Campaign, CampaignSpec, InMemoryStore, SqliteStore
        spec = {spec}
        with SqliteStore(sys.argv[1]) as store:
            assert Campaign.start(store, spec).run(max_steps=1) is None
        print(Campaign.start(InMemoryStore(), spec).run().to_json())
        """
    )
    reader = textwrap.dedent(
        """
        import sys
        from repro.campaigns.campaign import Campaign
        from repro.campaigns.store import SqliteStore
        with SqliteStore(sys.argv[1]) as store:
            (record,) = store.list_campaigns()
            print(Campaign.resume(store, record.campaign_id).run().to_json())
        """
    )
    expected = _python(writer, store).strip().splitlines()[-1]
    assert _python(reader, store).strip().splitlines()[-1] == expected


def test_cache_row_loads_after_importing_only_the_disk_cache(tmp_path):
    path = str(tmp_path / "cache.sqlite")
    # The pickled payload minus the serving flag, which a cache hit sets.
    dump = "pickle.dumps(dataclasses.replace(result, from_cache=False)).hex()"
    writer = _FULL_IMPORT + textwrap.dedent(
        f"""
        import dataclasses, pickle, sys
        import numpy as np
        from repro.engine.diskcache import SqliteResultCache
        from repro.engine.job import TrainingJob, run_training_job
        from repro.ml.data import Dataset
        from repro.ml.train import TrainingConfig
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(40, 4)), rng.integers(0, 3, size=40))
        job = TrainingJob(train=data, n_classes=3,
                          trainer_config=TrainingConfig(epochs=3), seed=1,
                          factory_name="softmax")
        result = run_training_job(job)
        cache = SqliteResultCache(sys.argv[1])
        cache.put("row", result)
        cache.close()
        print({dump})
        """
    )
    reader = textwrap.dedent(
        f"""
        import dataclasses, pickle, sys
        from repro.engine.diskcache import SqliteResultCache
        cache = SqliteResultCache(sys.argv[1])
        result = cache.get("row")
        cache.close()
        print({dump})
        """
    )
    expected = _python(writer, path).strip().splitlines()[-1]
    assert _python(reader, path).strip().splitlines()[-1] == expected
