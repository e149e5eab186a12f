"""The QoS predicate (Eq. 3).

QoS is satisfied for a candidate setting iff its predicted execution time
does not exceed the predicted baseline time scaled by the relaxation
parameter alpha (fixed to 1 in the paper).  Both sides come from the *same*
performance model — the RM can only compare predictions with predictions.

A relative tolerance absorbs floating-point noise so the baseline setting
itself is always feasible (its two predictions are bit-identical
analytically but may differ in the last ulp after vectorised evaluation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QoSPolicy"]

#: Relative tolerance for the feasibility comparison.
_RTOL = 1e-9


@dataclass(frozen=True)
class QoSPolicy:
    """Eq. 3 with relaxation parameter ``alpha``."""

    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def feasible(self, predicted_time: float, predicted_baseline: float) -> bool:
        """Scalar Eq. 3."""
        bound = predicted_baseline * self.alpha
        return predicted_time <= bound * (1.0 + _RTOL)

    def feasible_mask(
        self, time_grid: np.ndarray, predicted_baseline: float
    ) -> np.ndarray:
        """Vectorised Eq. 3 over a prediction grid."""
        if predicted_baseline <= 0:
            raise ValueError("baseline prediction must be positive")
        bound = predicted_baseline * self.alpha
        return np.asarray(time_grid) <= bound * (1.0 + _RTOL)
