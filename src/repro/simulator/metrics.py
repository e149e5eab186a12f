"""Simulation results and the paper's evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import Setting
from repro.power.energy import EnergyBreakdown

__all__ = ["SimResult", "SettingChange", "energy_savings"]


@dataclass(frozen=True)
class SettingChange:
    """History entry: a core switched settings at a point in time."""

    time_s: float
    core_id: int
    setting: Setting


@dataclass
class SimResult:
    """Outcome of one multi-core simulation run.

    Energy follows Section IV-D1: per-application core + memory-dynamic
    energy until that application completes its instruction horizon, plus
    system uncore energy until the end of simulation.
    """

    rm_name: str
    apps: Tuple[str, ...]
    per_core_energy: List[EnergyBreakdown]
    uncore_j: float
    t_end_s: float
    horizon_instructions: float
    intervals_completed: int
    qos_checks: int
    violations: List[float] = field(default_factory=list)
    rm_invocations: int = 0
    rm_instructions: float = 0.0
    history: Optional[List[SettingChange]] = None

    @property
    def app_energy_j(self) -> float:
        return sum(e.app_total_j for e in self.per_core_energy)

    @property
    def total_energy_j(self) -> float:
        return self.app_energy_j + self.uncore_j

    @property
    def violation_rate(self) -> float:
        """Fraction of evaluated intervals that violated QoS."""
        if self.qos_checks == 0:
            return 0.0
        return len(self.violations) / self.qos_checks

    def mean_violation(self) -> float:
        if not self.violations:
            return 0.0
        return sum(self.violations) / len(self.violations)

    def breakdown(self) -> Dict[str, float]:
        """Aggregate energy per component (J)."""
        total = EnergyBreakdown()
        for e in self.per_core_energy:
            total.add(e)
        return {
            "core_dynamic_j": total.core_dynamic_j,
            "core_static_j": total.core_static_j,
            "memory_j": total.memory_j,
            "overhead_j": total.overhead_j,
            "uncore_j": self.uncore_j,
        }


def energy_savings(result: SimResult, baseline: SimResult) -> float:
    """Relative energy saving of ``result`` versus the idle-RM ``baseline``.

    Positive = saved energy.  Raises when the runs are not comparable
    (different workloads or horizons — savings would be meaningless).
    """
    if result.apps != baseline.apps:
        raise ValueError("cannot compare runs of different workloads")
    if abs(result.horizon_instructions - baseline.horizon_instructions) > 0.5:
        raise ValueError("cannot compare runs with different horizons")
    base = baseline.total_energy_j
    if base <= 0:
        raise ValueError("baseline energy must be positive")
    return (base - result.total_energy_j) / base


def weighted_scenario_average(
    per_scenario: Dict[int, Sequence[float]], weights: Dict[int, float]
) -> float:
    """The paper's probability-weighted average over scenarios (Fig. 6)."""
    total_w = sum(weights.get(s, 0.0) for s in per_scenario)
    if total_w <= 0:
        raise ValueError("no overlapping scenarios between values and weights")
    acc = 0.0
    for scenario, values in per_scenario.items():
        if not values:
            raise ValueError(f"scenario {scenario} has no values")
        acc += weights.get(scenario, 0.0) * (sum(values) / len(values))
    return acc / total_w
