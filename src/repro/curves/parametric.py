"""Alternative parametric learning-curve families.

Domhan et al. (reference [15] of the paper) compare 11 parametric models for
learning-curve extrapolation; the paper concludes that "a power-law curve
fits as well as any other curve".  This module provides a small family zoo so
that conclusion can be checked as an ablation
(``benchmarks/test_ablation_curve_families.py``): each family exposes the same
fit/predict interface and families are compared by weighted log-space RMSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.curves.fitting import _validate_points, fit_power_law
from repro.utils.exceptions import FittingError


@dataclass(frozen=True)
class FittedFamilyCurve:
    """A fitted curve from one parametric family."""

    family: str
    params: tuple[float, ...]
    predict_fn: Callable[[np.ndarray], np.ndarray]
    rmse: float

    def predict(self, size: float | np.ndarray) -> float | np.ndarray:
        """Predicted loss at ``size``."""
        size = np.asarray(size, dtype=np.float64)
        result = self.predict_fn(size)
        return float(result) if np.ndim(result) == 0 else np.asarray(result)


@dataclass(frozen=True)
class CurveFamily:
    """A parametric learning-curve family.

    Attributes
    ----------
    name:
        Family name (``"power_law"``, ``"power_law_floor"``, ``"exponential"``,
        ``"logarithmic"``, ``"inverse_linear"``).
    function:
        ``f(x, *params) -> y``.
    initial_guess:
        Callable producing a starting point from the data.
    bounds:
        (lower, upper) parameter bounds for the non-linear fit.
    """

    name: str
    function: Callable[..., np.ndarray]
    initial_guess: Callable[[np.ndarray, np.ndarray], Sequence[float]]
    bounds: tuple[Sequence[float], Sequence[float]]


def _power_law(x: np.ndarray, b: float, a: float) -> np.ndarray:
    return b * np.power(x, -a)


def _power_law_floor(x: np.ndarray, b: float, a: float, c: float) -> np.ndarray:
    return b * np.power(x, -a) + c


def _exponential(x: np.ndarray, b: float, k: float, c: float) -> np.ndarray:
    return b * np.exp(-k * x) + c


def _logarithmic(x: np.ndarray, b: float, a: float) -> np.ndarray:
    return np.maximum(b - a * np.log(x), 1e-12)


def _inverse_linear(x: np.ndarray, b: float, c: float) -> np.ndarray:
    return b / x + c


CURVE_FAMILIES: dict[str, CurveFamily] = {
    "power_law": CurveFamily(
        name="power_law",
        function=_power_law,
        initial_guess=lambda x, y: (float(y.max()) * float(x.min()) ** 0.3, 0.3),
        bounds=([1e-12, 1e-3], [np.inf, 5.0]),
    ),
    "power_law_floor": CurveFamily(
        name="power_law_floor",
        function=_power_law_floor,
        initial_guess=lambda x, y: (
            float(y.max()) * float(x.min()) ** 0.3,
            0.3,
            float(y.min()) * 0.5,
        ),
        bounds=([1e-12, 1e-3, 0.0], [np.inf, 5.0, np.inf]),
    ),
    "exponential": CurveFamily(
        name="exponential",
        function=_exponential,
        initial_guess=lambda x, y: (
            float(y.max() - y.min()) + 1e-6,
            1.0 / max(float(x.max()), 1.0),
            float(y.min()),
        ),
        bounds=([1e-12, 1e-9, 0.0], [np.inf, np.inf, np.inf]),
    ),
    "logarithmic": CurveFamily(
        name="logarithmic",
        function=_logarithmic,
        initial_guess=lambda x, y: (float(y.max()), 0.1),
        bounds=([1e-12, 0.0], [np.inf, np.inf]),
    ),
    "inverse_linear": CurveFamily(
        name="inverse_linear",
        function=_inverse_linear,
        initial_guess=lambda x, y: (float(y.max()) * float(x.min()), float(y.min())),
        bounds=([1e-12, 0.0], [np.inf, np.inf]),
    ),
}


def fit_family(
    family: str | CurveFamily,
    sizes: np.ndarray,
    losses: np.ndarray,
    weights: np.ndarray | None = None,
) -> FittedFamilyCurve:
    """Fit one parametric family to the measured points.

    Falls back to the robust log-space power-law fit when the requested
    family's non-linear optimization fails.
    """
    from scipy import optimize  # deferred: costs ~0.5 s at import (README, Start-up)

    if isinstance(family, str):
        try:
            family = CURVE_FAMILIES[family]
        except KeyError:
            raise FittingError(
                f"unknown curve family {family!r}; available: "
                f"{sorted(CURVE_FAMILIES)}"
            ) from None
    sizes, losses, weights = _validate_points(sizes, losses, weights)
    sigma = 1.0 / np.sqrt(weights)
    try:
        params, _ = optimize.curve_fit(
            family.function,
            sizes,
            losses,
            p0=list(family.initial_guess(sizes, losses)),
            sigma=sigma,
            bounds=family.bounds,
            maxfev=10000,
        )
        params = tuple(float(p) for p in params)
        predict_fn = lambda x, p=params, f=family.function: f(  # noqa: E731
            np.asarray(x, dtype=np.float64), *p
        )
    except (RuntimeError, ValueError):
        fallback = fit_power_law(sizes, losses, weights)
        params = (fallback.b, fallback.a)
        predict_fn = fallback.predict

    predicted = np.maximum(np.asarray(predict_fn(sizes), dtype=np.float64), 1e-12)
    w = weights / weights.sum()
    rmse = float(np.sqrt(np.sum(w * (np.log(losses) - np.log(predicted)) ** 2)))
    return FittedFamilyCurve(
        family=family.name, params=params, predict_fn=predict_fn, rmse=rmse
    )


def select_best_family(
    sizes: np.ndarray,
    losses: np.ndarray,
    weights: np.ndarray | None = None,
    families: Sequence[str] | None = None,
) -> FittedFamilyCurve:
    """Fit every requested family and return the one with the lowest RMSE."""
    names = list(families) if families is not None else sorted(CURVE_FAMILIES)
    fits = [fit_family(name, sizes, losses, weights) for name in names]
    return min(fits, key=lambda fit: fit.rmse)
