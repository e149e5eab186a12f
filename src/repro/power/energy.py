"""Energy accounting containers."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["EnergyBreakdown"]


@dataclass
class EnergyBreakdown:
    """Mutable per-component energy accumulator (joules).

    The split follows the paper's accounting (Section IV-D1): core dynamic
    and static energy plus the dynamic energy of memory accesses are charged
    per application; uncore (LLC + NoC) energy is charged system-wide until
    the end of simulation.
    """

    core_dynamic_j: float = 0.0
    core_static_j: float = 0.0
    memory_j: float = 0.0
    uncore_j: float = 0.0
    overhead_j: float = 0.0

    @property
    def app_total_j(self) -> float:
        """Per-application energy (the per-app part of Eq. 4/5)."""
        return self.core_dynamic_j + self.core_static_j + self.memory_j + self.overhead_j

    def add(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        """In-place accumulation; returns self for chaining."""
        self.core_dynamic_j += other.core_dynamic_j
        self.core_static_j += other.core_static_j
        self.memory_j += other.memory_j
        self.uncore_j += other.uncore_j
        self.overhead_j += other.overhead_j
        return self
