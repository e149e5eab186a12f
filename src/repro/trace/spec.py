"""Application and phase behaviour specifications.

A :class:`PhaseSpec` captures everything the substrate needs to synthesise a
representative execution interval of one program phase:

* the **memory side** — LLC access density, reuse profile (cache
  sensitivity), load→load dependence fraction and burst geometry (which
  together determine how much memory-level parallelism each ROB size can
  expose),
* the **compute side** — ILP-limited IPC per core size, branch
  mispredictions and exposed cache-hit stall cycles.

An :class:`AppSpec` strings phases into an application with a deterministic
interval→phase pattern, mirroring the SimPoint phase traces of the paper's
methodology (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Tuple

from repro.config import CoreSize
from repro.trace.reuse import ReuseProfile
from repro.util.validation import check_fraction, check_positive

__all__ = ["PhaseSpec", "AppSpec"]


@dataclass(frozen=True)
class PhaseSpec:
    """Behavioural parameters of one program phase.

    Attributes
    ----------
    name:
        Phase label, unique within its application.
    reuse:
        LLC reuse profile (determines the miss curve / cache sensitivity).
    llc_apki:
        LLC accesses (private-L2 misses) per kilo-instruction.
    chain_frac:
        Probability that an access depends on the immediately preceding
        access (pointer chasing).  High values serialise misses and pin MLP
        near 1 regardless of the instruction window.
    burst_len:
        Mean number of accesses per burst.  Long bursts of independent
        accesses are the raw material of MLP.
    intra_gap_frac:
        Instruction gap between accesses *inside* a burst, as a fraction of
        the mean access gap (``1000 / llc_apki``).  Small values pack bursts
        tightly so even a small ROB can overlap them; values near 1 spread
        accesses evenly so MLP grows with ROB size (parallelism-sensitive).
    ipc:
        ILP-limited IPC per core size (no memory stalls).  The degree to
        which this rises from S to L expresses ILP sensitivity.
    branch_mpki:
        Branch mispredictions per kilo-instruction.
    branch_penalty_cycles:
        Pipeline refill penalty per misprediction (core-size independent, as
        assumed by Eq. 1).
    llc_hit_exposed_cycles:
        Exposed stall cycles per LLC hit (the ``T_Cache`` component of
        Eq. 1); hits are partially overlapped so this is far below the raw
        LLC latency.
    dep_arrival_delay:
        How many stream positions a dependent access is delayed in the
        emulated out-of-order arrival order (Section III-C's premise that
        dependent loads arrive late at the ATD).
    burst_chain:
        When True, the lead access of every burst depends on the last
        access of the previous burst (loop-carried dependence), so bursts
        never overlap each other: MLP saturates at the burst size for every
        window — the "high but flat MLP" archetype (lbm-like streaming
        kernels).
    """

    name: str
    reuse: ReuseProfile
    llc_apki: float
    chain_frac: float
    burst_len: float
    intra_gap_frac: float
    ipc: Mapping[CoreSize, float]
    branch_mpki: float = 1.0
    branch_penalty_cycles: float = 14.0
    llc_hit_exposed_cycles: float = 3.0
    dep_arrival_delay: int = 2
    burst_chain: bool = False

    def __post_init__(self) -> None:
        check_positive("llc_apki", self.llc_apki)
        check_fraction("chain_frac", self.chain_frac)
        check_positive("burst_len", self.burst_len)
        check_fraction("intra_gap_frac", self.intra_gap_frac)
        if self.branch_mpki < 0:
            raise ValueError("branch_mpki must be non-negative")
        if self.branch_penalty_cycles < 0 or self.llc_hit_exposed_cycles < 0:
            raise ValueError("stall cycle terms must be non-negative")
        if self.dep_arrival_delay < 0:
            raise ValueError("dep_arrival_delay must be non-negative")
        from repro.config import CORE_PARAMS

        for size in CoreSize.all():
            if size not in self.ipc:
                raise ValueError(f"ipc must define core size {size.name}")
            check_positive(f"ipc[{size.name}]", self.ipc[size])
            if self.ipc[size] > CORE_PARAMS[size].issue_width:
                raise ValueError(
                    f"ipc[{size.name}]={self.ipc[size]} exceeds the issue "
                    f"width {CORE_PARAMS[size].issue_width}"
                )
        ipc_values = [self.ipc[s] for s in CoreSize.all()]
        if not (ipc_values[0] <= ipc_values[1] <= ipc_values[2]):
            raise ValueError("ipc must be non-decreasing from S to L")

    @property
    def mean_access_gap(self) -> float:
        """Mean instructions between consecutive LLC accesses."""
        return 1000.0 / self.llc_apki


@dataclass(frozen=True)
class AppSpec:
    """A multi-phase synthetic application.

    Attributes
    ----------
    name:
        Application name (we reuse the SPEC CPU2006 names for the calibrated
        suite so the paper's tables read identically).
    phases:
        The distinct program phases.
    phase_pattern:
        Repeating sequence of phase indices; interval ``k`` of the
        application executes phase ``phase_pattern[k % len(phase_pattern)]``.
        This plays the role of the SimPoint phase trace.
    n_intervals:
        Number of 100M-instruction intervals in one full execution of the
        application (its nominal length).
    """

    name: str
    phases: Tuple[PhaseSpec, ...]
    phase_pattern: Tuple[int, ...]
    n_intervals: int = 32

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("an application needs at least one phase")
        if not self.phase_pattern:
            raise ValueError("phase_pattern must be non-empty")
        if self.n_intervals < 1:
            raise ValueError("n_intervals must be >= 1")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ValueError("phase names must be unique within an application")
        for idx in self.phase_pattern:
            if not 0 <= idx < len(self.phases):
                raise ValueError(f"phase_pattern index {idx} out of range")

    @property
    def n_phases(self) -> int:
        return len(self.phases)

    def phase_of_interval(self, interval: int) -> int:
        """Phase index executed during the given (0-based) interval."""
        if interval < 0:
            raise ValueError("interval must be non-negative")
        return self.phase_pattern[interval % len(self.phase_pattern)]

    def phase_sequence(self, n_intervals: int | None = None) -> Tuple[int, ...]:
        """The phase-index sequence over one pass (or ``n_intervals``)."""
        n = self.n_intervals if n_intervals is None else n_intervals
        return tuple(self.phase_of_interval(i) for i in range(n))

    def phase_weights(self) -> Tuple[float, ...]:
        """Fraction of intervals spent in each phase over one pass.

        These play the role of SimPoint phase weights in the QoS-violation
        estimation (Section IV-D).
        """
        seq = self.phase_sequence()
        counts = [0] * self.n_phases
        for idx in seq:
            counts[idx] += 1
        total = float(len(seq))
        return tuple(c / total for c in counts)


def uniform_ipc(s: float, m: float, l: float) -> Mapping[CoreSize, float]:  # noqa: E743
    """Helper building the per-size IPC mapping in S, M, L order."""
    return {CoreSize.S: s, CoreSize.M: m, CoreSize.L: l}


# Re-export under a more descriptive public name while keeping the short
# helper for internal suite definitions.
ipc_by_size = uniform_ipc
