"""Prediction-error metrics and convergence-round bookkeeping.

The metric functions take a sequence of (actual, predicted) pairs;
`convergence_rounds` takes a per-epoch trace and its tolerance. All are
pure: no state, safe to call from several threads at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _residuals(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        raise ValueError("empty input: at least one (actual, predicted) pair is required")
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("pairs must be a sequence of (actual, predicted) tuples")
    return arr[:, 0] - arr[:, 1]


def rmse(pairs) -> float:
    """Root mean squared error over (actual, predicted) pairs."""
    r = _residuals(pairs)
    return float(np.sqrt(np.mean(r * r)))


def mae(pairs) -> float:
    """Mean absolute error over (actual, predicted) pairs."""
    return float(np.mean(np.abs(_residuals(pairs))))


def h_score(pairs) -> float:
    """Combined validation fitness: RMSE/2 + MAE/2.

    Lower is better. This is the quantity the training loop monitors for
    convergence and the tuner minimizes.
    """
    return (rmse(pairs) + mae(pairs)) / 2.0


def convergence_rounds(values: Sequence[float], threshold: float) -> int:
    """First epoch at which the consecutive change drops below the threshold.

    Returns the smallest t >= 2 (1-based) with |values[t] - values[t-1]| <
    threshold, or the series length if no consecutive pair gets that close.
    """
    vals = list(values)
    if not vals:
        raise ValueError("series must be non-empty")
    for t in range(2, len(vals) + 1):
        if abs(vals[t - 1] - vals[t - 2]) < threshold:
            return t
    return len(vals)
