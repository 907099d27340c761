"""Executor backends by name.

The table maps each name to its class in :mod:`repro.engine.executor`, which
is imported when a backend is first built, so listing the names (the CLI's
``--executor`` choices) loads no process-pool machinery, telemetry or numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.executor import Executor

_EXECUTORS = {
    "serial": "SerialExecutor",
    "process": "ProcessPoolExecutor",
    "process_pool": "ProcessPoolExecutor",
}


def available_executors() -> tuple[str, ...]:
    """Primary names of the built-in executor backends."""
    return ("serial", "process")


def get_executor(name: str, **kwargs: Any) -> Executor:
    """Build an executor backend by name (``"serial"`` or ``"process"``)."""
    class_name = _EXECUTORS.get(name.strip().lower())
    if class_name is None:
        raise ConfigurationError(
            f"unknown executor {name!r}; available: "
            f"{', '.join(available_executors())}"
        )
    from repro.engine import executor

    return getattr(executor, class_name)(**kwargs)
