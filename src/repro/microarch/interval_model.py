"""Mechanistic interval performance model (ground truth).

Composes per-interval execution time the same way Sniper's "ROB" model and
the paper's Eq. 1 do, but from the synthesised trace's ground truth:

    T(c, f, w) = [ N / IPC(c)                      (dispatch/ILP-limited)
                 + N * branch_mpki/1000 * penalty  (branch resolution)
                 + cache_stall(w) ] / f            (exposed hit stalls)
                 + LM_true(c, w) * L_mem           (memory stall time)

The compute terms scale with frequency; the memory term does not (the
leading-loads assumption).  An optional DRAM bandwidth-contention factor
inflates the effective memory latency when a core's miss traffic approaches
its per-core bandwidth share (Table I's "contention queue model").

Because the miss traffic depends on the execution time and the time on the
queueing factor, the contention equation is a fixed point.  The map

    T  ->  compute + LM * L0 * (1 + g * rho(T)^2 / (1 - rho(T))),
    rho(T) = min(misses * block / (bw * T), rho_max)

is strictly decreasing in ``T``, so the fixed point is unique; it is solved
by bisection (plain iteration oscillates between the saturated and
unsaturated branches near the bandwidth knee).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CoreSize, SystemConfig

__all__ = ["IntervalModel", "solve_contention_time"]

#: Default queueing gain of the contention model; mild on purpose — the
#: paper's evaluation is not bandwidth-saturated.
QUEUE_GAIN = 0.3

#: Utilisation cap of the queueing term.
RHO_MAX = 0.95

#: Bisection iterations (halves the bracket each step; 60 is exhaustive for
#: float64).
_BISECT_ITERS = 60


def solve_contention_time(
    compute_s: np.ndarray,
    base_mem_s: np.ndarray,
    miss_bytes: np.ndarray,
    bandwidth_bytes_per_s: float,
    queue_gain: float = QUEUE_GAIN,
) -> np.ndarray:
    """Unique fixed point of the contention equation, elementwise.

    Parameters
    ----------
    compute_s:
        Frequency-scaled compute time (no memory stalls).
    base_mem_s:
        Uncontended memory stall time (``LM * L0``).
    miss_bytes:
        Total bytes of miss traffic per interval (``misses * block``).
    bandwidth_bytes_per_s:
        Per-core DRAM bandwidth.

    All arrays broadcast together; returns the broadcast shape.
    """
    if bandwidth_bytes_per_s <= 0:
        raise ValueError("bandwidth must be positive")
    compute_s, base_mem_s, miss_bytes = np.broadcast_arrays(
        np.asarray(compute_s, dtype=float),
        np.asarray(base_mem_s, dtype=float),
        np.asarray(miss_bytes, dtype=float),
    )
    worst = 1.0 + queue_gain * RHO_MAX * RHO_MAX / (1.0 - RHO_MAX)
    lo = compute_s + base_mem_s
    hi = compute_s + base_mem_s * worst

    def rhs(t: np.ndarray) -> np.ndarray:
        rho = np.minimum(miss_bytes / (bandwidth_bytes_per_s * np.maximum(t, 1e-18)), RHO_MAX)
        return compute_s + base_mem_s * (1.0 + queue_gain * rho * rho / (1.0 - rho))

    # h(t) = rhs(t) - t is strictly decreasing; h(lo) >= 0 and h(hi) <= 0.
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        high_side = rhs(mid) >= mid
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class IntervalModel:
    """Ground-truth time evaluation for one phase record.

    Parameters
    ----------
    system:
        Full system configuration (memory latency, block size, bandwidth).
    contention:
        Apply the bandwidth-contention latency factor (default True).
    """

    system: SystemConfig
    contention: bool = True

    def time_s(
        self,
        *,
        core: CoreSize,
        f_ghz: float,
        n_instructions: float,
        ipc: float,
        branch_cycles: float,
        cache_stall_cycles: float,
        leading_misses: float,
        total_misses: float,
    ) -> float:
        """Execution time of one interval at setting (core, f, w).

        ``cache_stall_cycles`` and ``total_misses`` must already correspond
        to the allocation ``w``; ``leading_misses`` to (core, w).  The
        ``ipc`` already folds the issue width of ``core`` in; the argument
        is kept to make call sites self-documenting.
        """
        if ipc <= 0:
            raise ValueError("ipc must be positive")
        if f_ghz <= 0:
            raise ValueError("frequency must be positive")
        f_hz = f_ghz * 1e9
        compute_s = (n_instructions / ipc + branch_cycles + cache_stall_cycles) / f_hz
        base_mem = leading_misses * self.system.memory.base_latency_s
        if not self.contention:
            return compute_s + base_mem
        t = solve_contention_time(
            np.asarray(compute_s),
            np.asarray(base_mem),
            np.asarray(total_misses * self.system.cache.block_bytes),
            self.system.memory.bandwidth_gbps_per_core * 1e9,
        )
        return float(t)

    def time_grid(
        self,
        *,
        n_instructions: float,
        ipc_by_size: np.ndarray,
        branch_cycles: float,
        cache_stall_curve: np.ndarray,
        lm_matrix: np.ndarray,
        miss_curve: np.ndarray,
        frequencies_ghz: np.ndarray,
    ) -> np.ndarray:
        """Vectorised ground-truth time over the whole (c, f, w) grid.

        Returns
        -------
        ``float[n_sizes, n_freqs, n_ways]`` execution times in seconds.
        """
        ipc = np.asarray(ipc_by_size, dtype=float)
        freqs = np.asarray(frequencies_ghz, dtype=float) * 1e9
        stall = np.asarray(cache_stall_curve, dtype=float)
        lm = np.asarray(lm_matrix, dtype=float)
        misses = np.asarray(miss_curve, dtype=float)
        if lm.shape != (ipc.size, misses.size) or stall.shape != misses.shape:
            raise ValueError("grid input shapes are inconsistent")

        compute_cycles = (
            n_instructions / ipc[:, None, None]
            + branch_cycles
            + stall[None, None, :]
        )
        compute_s = compute_cycles / freqs[None, :, None]
        base_mem = lm[:, None, :] * self.system.memory.base_latency_s
        if not self.contention:
            return compute_s + base_mem
        return solve_contention_time(
            compute_s,
            base_mem,
            misses[None, None, :] * self.system.cache.block_bytes,
            self.system.memory.bandwidth_gbps_per_core * 1e9,
        )
