"""Registry mapping dataset names to task builders.

The experiment harness and benchmarks refer to datasets by name
(``"fashion_like"``, ``"mixed_like"``, ``"faces_like"``, ``"adult_like"``);
this module resolves those names, so new synthetic tasks can be plugged in by
registering a builder.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

from repro.utils.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datasets.blueprints import SyntheticTask


def _builtin(module: str, name: str) -> Callable[..., SyntheticTask]:
    """The builder ``module.name``, imported on its first call.

    Listing the task names (the CLI's ``--dataset`` choices) then loads no
    generator module, and so no numpy.
    """

    def build(**kwargs: object) -> SyntheticTask:
        return getattr(importlib.import_module(module), name)(**kwargs)

    return build


_REGISTRY: dict[str, Callable[..., SyntheticTask]] = {
    "fashion_like": _builtin("repro.datasets.fashion", "fashion_like_task"),
    "mixed_like": _builtin("repro.datasets.mixed", "mixed_like_task"),
    "faces_like": _builtin("repro.datasets.faces", "faces_like_task"),
    "adult_like": _builtin("repro.datasets.adult", "adult_like_task"),
}


def available_tasks() -> list[str]:
    """Names of all registered synthetic tasks."""
    return sorted(_REGISTRY)


def register_task(name: str, builder: Callable[..., SyntheticTask]) -> None:
    """Register a new task ``builder`` under ``name``.

    Raises if the name is already taken, so accidental shadowing of the
    built-in tasks is caught early.
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"task {name!r} is already registered")
    _REGISTRY[name] = builder


def build_task(name: str, **kwargs: object) -> SyntheticTask:
    """Build the task registered under ``name``, passing ``kwargs`` through."""
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown task {name!r}; available: {available_tasks()}"
        ) from None
    return builder(**kwargs)
