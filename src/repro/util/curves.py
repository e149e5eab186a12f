"""Curve helpers for miss curves and energy curves.

Miss curves produced by a sampled ATD can exhibit tiny non-monotonicities
(sampling noise); the optimisation layers assume misses are non-increasing in
the number of allocated ways, so we provide explicit enforcement helpers
rather than sprinkling ``np.minimum.accumulate`` calls around.
"""

from __future__ import annotations

import numpy as np

__all__ = ["enforce_nonincreasing", "is_monotone_nonincreasing"]


def enforce_nonincreasing(values: np.ndarray) -> np.ndarray:
    """Smallest pointwise-dominating non-increasing curve (running min).

    Returns a new array; the input is never modified.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D curve")
    return np.minimum.accumulate(arr)


def is_monotone_nonincreasing(values: np.ndarray, atol: float = 1e-9) -> bool:
    """Whether a 1-D curve never increases (up to ``atol``)."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("expected a 1-D curve")
    if arr.size <= 1:
        return True
    return bool(np.all(np.diff(arr) <= atol))
