"""The cost of moving LLC ways between cores.

The RM's global optimiser produces a per-core way *count*; hardware
enforces it through per-core way bitmasks ("LLC Partitioning Bit-masks" in
Fig. 3, Intel CAT style).  Rewriting a mask is a register write, so the
simulator prices a repartition from each core's way delta alone, through
:class:`RepartitionTransient`: the refills the moved ways cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["RepartitionTransient"]


@dataclass(frozen=True)
class RepartitionTransient:
    """Warm-up cost of moving LLC ways between cores.

    Updating a partition bitmask is itself a register write, but the
    *contents* of transferred ways belong to the old owner: the gaining
    core cold-misses until it refills them, and the losing core re-misses
    on the part of its working set that no longer fits.  Both effects are
    bounded by the capacity of the transferred ways; the model charges each
    core whose allocation changed

        extra_misses = |delta ways| x lines_per_way x occupancy

    as DRAM refill energy plus a stall of ``extra_misses x L_mem / overlap``
    (refills overlap like ordinary misses).  The magnitude lands in the
    same range as a DVFS switch — small against a 100M-instruction interval
    but charged for fidelity, mirroring Section III-E's treatment of the
    other enforcement costs.

    Attributes
    ----------
    way_kb:
        Capacity of one way (Table I: 256 KB).
    block_bytes:
        Line size.
    occupancy:
        Fraction of transferred lines that actually cause a refill.
    overlap:
        Assumed refill MLP (misses overlapped during warm-up).
    """

    way_kb: int = 256
    block_bytes: int = 64
    occupancy: float = 0.5
    overlap: float = 8.0

    def __post_init__(self) -> None:
        if self.way_kb <= 0 or self.block_bytes <= 0:
            raise ValueError("capacities must be positive")
        if not 0.0 <= self.occupancy <= 1.0:
            raise ValueError("occupancy must be in [0, 1]")
        if self.overlap < 1.0:
            raise ValueError("overlap must be >= 1")

    @property
    def lines_per_way(self) -> int:
        return self.way_kb * 1024 // self.block_bytes

    def extra_misses(self, delta_ways: int) -> float:
        """Transient refill misses for a ``delta_ways`` change (either sign)."""
        return abs(int(delta_ways)) * self.lines_per_way * self.occupancy

    def cost(
        self, delta_ways: int, mem_latency_s: float, mem_energy_j: float
    ) -> Tuple[float, float]:
        """(stall seconds, energy joules) charged to one core."""
        if mem_latency_s < 0 or mem_energy_j < 0:
            raise ValueError("latency and energy must be non-negative")
        misses = self.extra_misses(delta_ways)
        return misses * mem_latency_s / self.overlap, misses * mem_energy_j
