"""Reuse (recency) profiles for synthetic LLC access streams.

A :class:`ReuseProfile` is a probability distribution over the *recency
position* an access targets inside its cache set: position ``r`` means the
access touches the r-th most-recently-used line of the set (a hit for any
per-core way allocation ``w >= r``), and the special position
:data:`~repro.trace.stream.FRESH` means the access touches a line not
resident at any allocation (a compulsory/capacity miss everywhere).

The profile shape directly determines the application's miss curve
``misses(w)`` and therefore its cache sensitivity per the paper's
Section IV-C definition:

* :func:`small_ws_profile` — mass at small recencies: cache *insensitive*
  with a low MPKI (working set fits in a couple of ways),
* :func:`streaming_profile` — mass at FRESH: cache *insensitive* with a high
  MPKI (lbm/libquantum-like streaming),
* :func:`cliff_profile` — mass concentrated around a recency cliff inside
  the 2..16-way control range: cache *sensitive* (mcf/omnetpp-like).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trace.stream import FRESH
from repro.util.validation import check_fraction

__all__ = [
    "ReuseProfile",
    "flat_profile",
    "small_ws_profile",
    "streaming_profile",
    "cliff_profile",
]

#: Number of distinct recency positions tracked (the maximum way allocation).
MAX_RECENCY = 16


@dataclass(frozen=True)
class ReuseProfile:
    """Distribution over recency positions ``1..16`` plus FRESH.

    Attributes
    ----------
    pmf:
        Length-17 vector; ``pmf[r-1]`` is the probability of recency ``r``
        for ``r`` in 1..16 and ``pmf[16]`` the probability of a fresh
        (always-miss) access.
    """

    pmf: tuple

    def __post_init__(self) -> None:
        arr = np.asarray(self.pmf, dtype=float)
        if arr.shape != (MAX_RECENCY + 1,):
            raise ValueError(f"pmf must have length {MAX_RECENCY + 1}")
        if np.any(arr < -1e-12):
            raise ValueError("pmf must be non-negative")
        if abs(arr.sum() - 1.0) > 1e-6:
            raise ValueError(f"pmf must sum to 1, got {arr.sum()}")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.pmf, dtype=float)

    def sample_recencies(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` recency targets; FRESH is encoded as 0."""
        pmf = self.as_array()
        draws = rng.choice(MAX_RECENCY + 1, size=n, p=pmf)
        # draws in 0..15 -> recency 1..16 ; draw 16 -> FRESH (0)
        recency = draws + 1
        recency[draws == MAX_RECENCY] = FRESH
        return recency.astype(np.int16)

    def expected_miss_fraction(self, ways: int) -> float:
        """Fraction of accesses missing under a ``ways``-way allocation.

        An access at recency ``r`` hits iff ``ways >= r``; FRESH always
        misses.
        """
        if ways < 0:
            raise ValueError("ways must be non-negative")
        pmf = self.as_array()
        hit = pmf[: min(ways, MAX_RECENCY)].sum()
        # clamp float-summation noise so fractions stay in [0, 1]
        return float(min(max(1.0 - hit, 0.0), 1.0))

    def miss_curve(self, max_ways: int = MAX_RECENCY) -> np.ndarray:
        """Expected miss fraction for allocations ``1..max_ways``."""
        return np.array(
            [self.expected_miss_fraction(w) for w in range(1, max_ways + 1)]
        )


def _normalised(weights: np.ndarray) -> ReuseProfile:
    w = np.clip(np.asarray(weights, dtype=float), 0.0, None)
    total = w.sum()
    if total <= 0:
        raise ValueError("profile weights must have positive mass")
    return ReuseProfile(tuple(w / total))


def flat_profile(fresh_frac: float = 0.1) -> ReuseProfile:
    """Uniform reuse over all recency positions with a FRESH tail."""
    check_fraction("fresh_frac", fresh_frac)
    w = np.full(MAX_RECENCY + 1, (1.0 - fresh_frac) / MAX_RECENCY)
    w[MAX_RECENCY] = fresh_frac
    return _normalised(w)


def small_ws_profile(ways: int = 3, fresh_frac: float = 0.02) -> ReuseProfile:
    """Working set fits in ``ways`` ways: cache-insensitive, low MPKI."""
    if not 1 <= ways <= MAX_RECENCY:
        raise ValueError("ways must be in 1..16")
    check_fraction("fresh_frac", fresh_frac)
    w = np.zeros(MAX_RECENCY + 1)
    w[:ways] = (1.0 - fresh_frac) / ways
    w[MAX_RECENCY] = fresh_frac
    return _normalised(w)


def streaming_profile(fresh_frac: float = 0.9, near_ways: int = 2) -> ReuseProfile:
    """Streaming access: almost everything misses at any allocation."""
    check_fraction("fresh_frac", fresh_frac)
    w = np.zeros(MAX_RECENCY + 1)
    w[:near_ways] = (1.0 - fresh_frac) / near_ways
    w[MAX_RECENCY] = fresh_frac
    return _normalised(w)


def cliff_profile(
    center: float = 9.0, width: float = 3.0, fresh_frac: float = 0.1
) -> ReuseProfile:
    """Gaussian-shaped reuse mass around a recency cliff.

    With the cliff inside the controllable range, shifting ways across the
    cliff moves a large fraction of accesses between hit and miss — the
    signature of a cache-sensitive application.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    check_fraction("fresh_frac", fresh_frac)
    r = np.arange(1, MAX_RECENCY + 1, dtype=float)
    w = np.exp(-0.5 * ((r - center) / width) ** 2)
    w = w / w.sum() * (1.0 - fresh_frac)
    return _normalised(np.concatenate([w, [fresh_frac]]))
