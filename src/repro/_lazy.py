"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that imports everything it re-exports makes every
``import repro.<package>.<module>`` pay for all of its siblings (and, through
them, for scipy and the rest of the package graph).  Instead, each
``__init__`` declares which names it re-exports from which of its modules,
and :func:`lazy_exports` turns that table into the module's ``__all__``,
``__getattr__`` and ``__dir__``: a name's defining module is imported on
first access, and the object is then cached in the package namespace.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], Any], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module name, relative to ``package`` (``".store"``),
    to the names the package re-exports from it.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
