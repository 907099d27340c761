"""Imbalance ratio and the GetChangeRatio solver of Algorithm 1.

The imbalance ratio (largest slice size divided by smallest) is the paper's
proxy for data bias: the Iterative algorithm limits how much the ratio may
change per acquisition batch so learning curves stay trustworthy between
updates.  When the One-shot allocation would change the ratio by more than
the limit ``T``, ``GetChangeRatio`` finds the scaling factor ``x`` in (0, 1]
such that acquiring ``x * num_examples`` lands exactly on the target ratio.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.exceptions import OptimizationError

from repro.slices.validation import imbalance_ratio  # re-exported

__all__ = ["imbalance_ratio", "get_change_ratio"]


def get_change_ratio(
    sizes: Sequence[float] | np.ndarray,
    num_examples: Sequence[float] | np.ndarray,
    target_ratio: float,
) -> float:
    """Find ``x`` in (0, 1] with ``imbalance_ratio(sizes + x*num) = target_ratio``.

    Parameters
    ----------
    sizes:
        Current slice sizes (all positive).
    num_examples:
        The full-budget allocation proposed by One-shot.
    target_ratio:
        The imbalance ratio the scaled allocation must land on; it must lie
        between the current ratio and the ratio after the full allocation
        (this is guaranteed by Algorithm 1's construction).

    Returns
    -------
    The scaling factor ``x``.  Follows the paper's worked example: with
    ``sizes = [10, 10]``, ``num = [10, 40]`` and ``target = 2`` the result is
    ``0.5``.
    """
    from scipy import optimize  # deferred: costs ~0.5 s at import (README, Start-up)

    sizes = np.asarray(sizes, dtype=np.float64).ravel()
    num_examples = np.asarray(num_examples, dtype=np.float64).ravel()
    if sizes.shape != num_examples.shape:
        raise OptimizationError("sizes and num_examples must have the same length")
    if np.any(sizes <= 0):
        raise OptimizationError(
            "all slice sizes must be positive to compute a change ratio"
        )
    target_ratio = float(target_ratio)
    if target_ratio < 1.0:
        raise OptimizationError(
            f"target imbalance ratio must be >= 1, got {target_ratio}"
        )

    def ratio_at(x: float) -> float:
        return imbalance_ratio(sizes + x * num_examples)

    start, end = ratio_at(0.0), ratio_at(1.0)
    low_value = start - target_ratio
    high_value = end - target_ratio
    if abs(low_value) < 1e-12:
        return 0.0
    if abs(high_value) < 1e-12:
        return 1.0
    if np.sign(low_value) == np.sign(high_value):
        raise OptimizationError(
            f"target ratio {target_ratio} is not bracketed by the current ratio "
            f"{start:.4f} and the full-allocation ratio {end:.4f}"
        )
    return float(
        optimize.brentq(lambda x: ratio_at(x) - target_ratio, 0.0, 1.0, xtol=1e-10)
    )
