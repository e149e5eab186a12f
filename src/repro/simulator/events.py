"""Event scheduling for the fluid multicore model.

The simulator advances in *global events*: the next instant at which any
core completes its current interval (Fig. 5's ``t1, t2, ...``).  A core's
time-to-boundary is its pending enforcement stall plus the remaining
interval instructions at its current time-per-instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "Boundary",
    "next_boundary",
]


@dataclass(frozen=True)
class Boundary:
    """The next global event: which core, and in how many seconds."""

    core_id: int
    dt_s: float


def time_to_boundary(
    stall_s: float, remaining_instructions: float, tpi_s: float
) -> float:
    """Seconds until a core reaches its interval boundary."""
    if stall_s < 0 or remaining_instructions < 0 or tpi_s <= 0:
        raise ValueError("invalid progress state")
    return stall_s + remaining_instructions * tpi_s


def next_boundary(
    stalls: Sequence[float],
    remaining: Sequence[float],
    tpis: Sequence[float],
) -> Boundary:
    """Earliest interval completion across cores (ties -> lowest core id).

    The scalar loop's pick; the wave loop's compiled and NumPy picks
    perform the same per-core arithmetic over arrays.
    """
    if not stalls or not (len(stalls) == len(remaining) == len(tpis)):
        raise ValueError("per-core sequences must be non-empty and aligned")
    best_id = 0
    best_dt = time_to_boundary(stalls[0], remaining[0], tpis[0])
    for i in range(1, len(stalls)):
        dt = time_to_boundary(stalls[i], remaining[i], tpis[i])
        if dt < best_dt:
            best_id, best_dt = i, dt
    return Boundary(core_id=best_id, dt_s=best_dt)
