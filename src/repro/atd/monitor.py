"""UMON-style recency histogram and miss-curve estimation.

The ATD's utility monitor counts, for each recency position ``r``, how many
accesses hit at that position, plus the number of outright ATD misses.  The
miss count for a candidate allocation of ``w`` ways is then

    misses(w) = sum of hits at positions > w  +  ATD misses

(Section III-C of the paper).  With set sampling, counts are scaled by the
sampling factor; the curve is re-monotonised to absorb sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.stream import FRESH
from repro.util.curves import enforce_nonincreasing

__all__ = ["RecencyMonitor"]


@dataclass
class RecencyMonitor:
    """Accumulates a recency histogram and derives miss curves.

    Attributes
    ----------
    max_ways:
        Highest monitored allocation (stack depth of the ATD).
    scale:
        Multiplier applied to raw counts (set-sampling compensation x
        trace-sample-to-nominal conversion).
    """

    max_ways: int = 16
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.max_ways < 1:
            raise ValueError("max_ways must be >= 1")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        self._hits = np.zeros(self.max_ways + 1, dtype=np.int64)
        self._misses = 0
        self._accesses = 0

    def record(self, recency: int) -> None:
        """Record one access outcome (recency position or FRESH)."""
        self._accesses += 1
        if recency == FRESH:
            self._misses += 1
        elif 1 <= recency <= self.max_ways:
            self._hits[recency] += 1
        else:
            raise ValueError(f"recency {recency} outside 1..{self.max_ways}")

    def record_many(self, recencies: np.ndarray) -> None:
        """Vectorised bulk record."""
        rec = np.asarray(recencies)
        if rec.size == 0:
            return
        if np.any((rec < 0) | (rec > self.max_ways)):
            raise ValueError("recency values outside 0..max_ways")
        self._accesses += rec.size
        self._misses += int(np.count_nonzero(rec == FRESH))
        hist = np.bincount(rec[rec != FRESH], minlength=self.max_ways + 1)
        self._hits[: len(hist)] += hist

    @property
    def accesses(self) -> float:
        return self._accesses * self.scale

    def miss_curve(self) -> np.ndarray:
        """Estimated misses for allocations ``1..max_ways`` (scaled).

        Monotone non-increasing by construction of the recency semantics;
        enforced explicitly to absorb any sampling artefacts.
        """
        tail_hits = np.cumsum(self._hits[::-1])[::-1]  # hits at positions >= r
        # misses(w) = hits at positions > w + ATD misses
        curve = tail_hits[2:].tolist() + [0]  # positions > w for w = 1..max
        raw = (np.array(curve, dtype=float) + self._misses) * self.scale
        return enforce_nonincreasing(raw)
