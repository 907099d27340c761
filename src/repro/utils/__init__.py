"""Shared utilities: randomness, validation helpers, text rendering.

These helpers are deliberately small and dependency-free so every other
subpackage (ml substrate, curves, core optimizer, experiments) can rely on
them without circular imports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".exceptions": (
            "BudgetError",
            "ConfigurationError",
            "FittingError",
            "OptimizationError",
            "ReproError",
            "SlicingError",
        ),
        ".rng": ("RandomState", "as_generator", "spawn_generators"),
        ".tables": ("format_series", "format_table"),
        ".validation": (
            "check_in_range",
            "check_length_match",
            "check_non_negative",
            "check_positive",
            "check_probability",
        ),
    },
)
