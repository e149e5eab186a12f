"""Per-core DVFS controller and transition-cost model.

Enforcing an RM decision is dominated by the voltage/frequency switch
(Section III-E): the paper adopts the 15 us / 3 uJ figures measured by Park
et al. on the Samsung Exynos 4210.  Core resizing additionally drains the
pipeline — roughly ``instruction window / IPC`` cycles — which is negligible
against a 100M-instruction interval but is charged anyway for fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CORE_PARAMS, CoreSize, DVFSConfig, Setting

__all__ = ["TransitionCost", "DVFSController"]


@dataclass(frozen=True)
class TransitionCost:
    """Time and energy charged to a core for enforcing a new setting."""

    time_s: float = 0.0
    energy_j: float = 0.0

    def __add__(self, other: "TransitionCost") -> "TransitionCost":
        return TransitionCost(
            self.time_s + other.time_s, self.energy_j + other.energy_j
        )


class DVFSController:
    """Tracks per-core settings and prices their transitions.

    Parameters
    ----------
    dvfs:
        The DVFS domain parameters (ladder + transition costs).
    resize_drain_ipc:
        Average IPC assumed while draining the pipeline for a core resize.
    """

    def __init__(self, dvfs: DVFSConfig, resize_drain_ipc: float = 2.0):
        if resize_drain_ipc <= 0:
            raise ValueError("resize_drain_ipc must be positive")
        self.dvfs = dvfs
        self.resize_drain_ipc = resize_drain_ipc

    def vf_transition_cost(self, old_f_ghz: float, new_f_ghz: float) -> TransitionCost:
        """Cost of a voltage/frequency change (zero if unchanged)."""
        if abs(old_f_ghz - new_f_ghz) < 1e-12:
            return TransitionCost()
        return TransitionCost(
            time_s=self.dvfs.transition_time_s,
            energy_j=self.dvfs.transition_energy_j,
        )

    def resize_cost(
        self, old_core: CoreSize, new_core: CoreSize, f_ghz: float
    ) -> TransitionCost:
        """Pipeline-drain cost of a core resize (zero if unchanged).

        Draining takes ``ROB / IPC`` cycles at the *current* frequency
        before sections are gated on/off (Section III-E).
        """
        if old_core == new_core:
            return TransitionCost()
        drain_cycles = CORE_PARAMS[old_core].rob / self.resize_drain_ipc
        return TransitionCost(time_s=drain_cycles / (f_ghz * 1e9))

    def transition_cost(self, old: Setting, new: Setting) -> TransitionCost:
        """Total enforcement cost of moving a core between settings.

        LLC-mask updates are treated as free (a register write); DVFS and
        resize costs accumulate.
        """
        return self.vf_transition_cost(old.f_ghz, new.f_ghz) + self.resize_cost(
            old.core, new.core, old.f_ghz
        )
