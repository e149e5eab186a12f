"""Per-core energy curves: the local/global optimisation interface.

The key architectural property of the framework (Section III-A) is that the
*only* thing a core exports to the global optimiser is a curve
``E(w)`` — minimum predicted energy as a function of allocated ways — no
matter which local resources (f alone, or f and c) produced it.  Infeasible
allocations carry ``+inf``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EnergyCurve"]


@dataclass(frozen=True)
class EnergyCurve:
    """Minimum-energy-vs-ways curve for one core.

    Attributes
    ----------
    ways:
        ``int[k]`` ascending, contiguous candidate way counts.
    energy:
        ``float[k]`` predicted energy (J); ``+inf`` marks QoS-infeasible
        allocations.  NaN is rejected: the reduction's compiled and NumPy
        combines order a NaN sum differently.
    """

    ways: np.ndarray
    energy: np.ndarray

    def __post_init__(self) -> None:
        ways = np.asarray(self.ways, dtype=int)
        energy = np.asarray(self.energy, dtype=float)
        if ways.ndim != 1 or ways.size == 0 or ways.shape != energy.shape:
            raise ValueError("ways and energy must be equal-length 1-D arrays")
        if np.any(np.diff(ways) != 1):
            raise ValueError("ways must be contiguous ascending integers")
        if np.isnan(energy).any():
            raise ValueError("energy must not hold NaN (infeasible is +inf)")
        object.__setattr__(self, "ways", ways)
        object.__setattr__(self, "energy", energy)
        # Domain bounds as plain ints: the optimiser hot paths read these
        # constantly, so they are materialised once instead of indexing
        # the array per access.
        object.__setattr__(self, "w_min", int(ways[0]))
        object.__setattr__(self, "w_max", int(ways[-1]))

    @classmethod
    def from_reduction(cls, w_min: int, energy: np.ndarray) -> "EnergyCurve":
        """Construct without re-validating (combine-kernel fast path).

        The curve-combine kernel produces, by construction, a contiguous
        float array starting at ``w_min``; validating that per combine
        would dominate the incremental update's cost.
        """
        curve = object.__new__(cls)
        object.__setattr__(
            curve, "ways", np.arange(w_min, w_min + energy.size)
        )
        object.__setattr__(curve, "energy", energy)
        object.__setattr__(curve, "w_min", w_min)
        object.__setattr__(curve, "w_max", w_min + energy.size - 1)
        return curve

    def energy_at(self, ways: int) -> float:
        if not self.w_min <= ways <= self.w_max:
            raise ValueError(f"ways {ways} outside curve domain")
        return float(self.energy[ways - self.w_min])

    def has_feasible_point(self) -> bool:
        """Whether any allocation is finite — scanned once per curve.

        Curves are immutable, and memoized local results hand the same
        curve object back on every recurrence, so the answer is cached.
        """
        feasible = self.__dict__.get("_feasible")
        if feasible is None:
            feasible = bool(np.isfinite(self.energy).any())
            object.__setattr__(self, "_feasible", feasible)
        return feasible

    @staticmethod
    def pinned(ways: int, energy: float = 0.0) -> "EnergyCurve":
        """A degenerate single-point curve (used for cores without
        observations yet: they stay pinned at the baseline allocation)."""
        return EnergyCurve(np.array([ways]), np.array([energy]))
