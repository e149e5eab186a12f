"""RM execution-cost accounting (Section III-E).

The paper measured the instruction count of a C implementation of the RM
algorithm: 51K/73K/100K instructions for 2/4/8-core systems with RM3 and
18K/40K/67K with RM2.  We count the *abstract operations* our optimisers
perform (model-grid evaluations in the local step, cell updates in the
curve reduction) and convert them to instruction estimates with per-RM
calibration constants set once against those six published points.

The conversion is deliberately simple (affine in evaluations and DP cells
plus a per-core term for bookkeeping) — the experiment reports both raw
operation counts and converted instruction estimates next to the paper's
numbers, so the calibration is transparent.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RMCostModel", "PAPER_RM_INSTRUCTIONS"]

#: Published instruction counts: {rm_label: {n_cores: instructions}}.
PAPER_RM_INSTRUCTIONS = {
    "w+f+c": {2: 51_000, 4: 73_000, 8: 100_000},
    "w+f": {2: 18_000, 4: 40_000, 8: 67_000},
}


@dataclass(frozen=True)
class RMCostModel:
    """Converts optimiser operation counts into instruction estimates.

    ``instructions = fixed + per_core * n_cores + per_eval * local_evals
    + per_dp * dp_cells`` (floored at ``min_instructions``).

    The default constants are calibrated against the paper's six
    published points: ``per_eval`` is pinned by the exact RM3-RM2
    difference (300 extra grid evaluations cost 33K instructions at every
    core count), ``per_dp`` is held at a small positive value, and
    ``fixed``/``per_core`` pass, to rounding, through the 2- and 8-core
    points.  A least-squares fit of all four terms would need a negative
    marginal DP cost because the paper's totals grow sublinearly in core
    count while reduction work grows superlinearly.  The worst residual is
    16.1% (RM2 at 4 cores: 33,551 against 40,000).
    """

    fixed: float = -13_200.0
    per_core: float = 7_240.0
    per_eval: float = 110.0
    per_dp: float = 1.0
    min_instructions: float = 1_000.0

    def instructions(
        self, n_cores: int, local_evaluations: int, dp_operations: int
    ) -> float:
        if n_cores < 1 or local_evaluations < 0 or dp_operations < 0:
            raise ValueError("counts must be non-negative (n_cores >= 1)")
        raw = (
            self.fixed
            + self.per_core * n_cores
            + self.per_eval * local_evaluations
            + self.per_dp * dp_operations
        )
        return max(raw, self.min_instructions)

    def time_overhead_s(
        self, instructions: float, ipc: float, f_ghz: float
    ) -> float:
        """Wall-clock cost of executing the RM on the invoking core."""
        if ipc <= 0 or f_ghz <= 0:
            raise ValueError("ipc and frequency must be positive")
        return instructions / (ipc * f_ghz * 1e9)

    def overhead_fraction(
        self, instructions: float, interval_instructions: int
    ) -> float:
        """RM instructions as a fraction of the interval (the paper's 0.1%)."""
        if interval_instructions <= 0:
            raise ValueError("interval_instructions must be positive")
        return instructions / interval_instructions
