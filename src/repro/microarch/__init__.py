"""Ground-truth core model (the stand-in for Sniper's "ROB" model).

``repro.microarch.leading`` counts leading misses per (core size,
allocation) in program order using the stream's *true* dependence links —
the oracle the paper's ATD heuristic approximates.

``repro.microarch.interval_model`` composes the mechanistic interval model:
dispatch/ILP-limited base cycles, branch and cache-hit stall cycles, and
leading-miss memory stall time, with an optional DRAM bandwidth-contention
refinement.
"""

from repro.microarch.leading import leading_miss_matrix
from repro.microarch.interval_model import IntervalModel

__all__ = ["leading_miss_matrix", "IntervalModel"]
