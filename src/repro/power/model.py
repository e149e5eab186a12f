"""Parametric core/memory power model.

The decomposition mirrors Section III-D of the paper:

* **Core dynamic energy** is per-instruction switched capacitance — it
  scales with the square of supply voltage and with a per-size factor.  A
  larger core spends moderately more energy per instruction (bigger
  structures per access), *not* proportionally to its peak width, because
  unused sections are clock/power-gated.  This is the "often linear relation
  between core size and energy" that makes trading core size against DVFS
  profitable.
* **Core static power** grows with core size (more powered-on area) and
  superlinearly with voltage.
* **Memory energy** is per-access (DRAM) plus per-LLC-access (uncore
  dynamic).
* **Uncore power** (LLC + NoC) is a constant per-core-slice term at the
  fixed global uncore clock; it is charged until the end of simulation as
  the paper's Section IV-D prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CoreSize, DVFSConfig, MemoryConfig, PowerConfig

__all__ = ["PowerModel"]


@dataclass(frozen=True)
class PowerModel:
    """Evaluates the parametric power/energy model.

    Parameters
    ----------
    power:
        Calibration constants.
    dvfs:
        Supplies the baseline voltage that normalises dynamic energy.
    memory:
        DRAM access energy.
    """

    power: PowerConfig
    dvfs: DVFSConfig
    memory: MemoryConfig

    # ------------------------------------------------------------------
    # core
    # ------------------------------------------------------------------
    def dynamic_energy_per_instruction_j(self, core: CoreSize, v: float) -> float:
        """Dynamic core energy per instruction at supply voltage ``v``."""
        if v <= 0:
            raise ValueError("voltage must be positive")
        rel_v = v / self.dvfs.v_base
        return (
            self.power.dyn_epi_nj
            * self.power.dyn_size_factor[core]
            * rel_v
            * rel_v
            * 1e-9
        )

    def static_power_w(self, core: CoreSize, v: float) -> float:
        """Static (leakage) power of one core."""
        if v <= 0:
            raise ValueError("voltage must be positive")
        return (
            self.power.static_w
            * self.power.static_size_factor[core]
            * (v / self.dvfs.v_base) ** self.power.static_v_exp
        )

    # ------------------------------------------------------------------
    # memory / uncore
    # ------------------------------------------------------------------
    def dram_access_energy_j(self) -> float:
        return self.memory.access_energy_nj * 1e-9

    def llc_access_energy_j(self) -> float:
        return self.power.llc_access_energy_nj * 1e-9

    def uncore_power_w(self, n_cores: int) -> float:
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        return self.power.uncore_w_per_core * n_cores
