"""Phase records: ground truth over the full setting grid.

A :class:`PhaseRecord` is the unit entry of the simulation database: for one
(application, phase) it holds

* the raw nominal-scale counts (miss curve, oracle and heuristic
  leading-miss matrices, access totals, compute-side rates), and
* pre-evaluated ground-truth grids of execution **time** and per-interval
  application **energy** over every (core size, frequency, allocation).

Grid axes are always ``[core size S..L, DVFS ladder ascending, ways 1..16]``.

:meth:`PhaseRecord.counters_at` extracts exactly what the hardware
performance counters would report after running one interval at a given
setting — the inputs of the online models (Eq. 1's statistics "collected
over the past interval").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.atd.atd import ATDReport
from repro.atd.mlp import MLPEstimate
from repro.config import CoreSize, Setting, SystemConfig

__all__ = ["PhaseRecord", "IntervalCounters"]


@dataclass(frozen=True)
class IntervalCounters:
    """Hardware-counter view of one executed interval.

    All counts are nominal-interval scale.  ``t1_cycles`` is the paper's
    ``T1 = T_BP + T_Cache`` (Eq. 1); ``mem_time_s`` the memory stall time;
    ``lm_current``/``misses_current`` the leading/total miss counts at the
    setting the interval actually ran at; ``core_dynamic_j`` the sampled
    dynamic core energy used by the energy model (Eq. 4's
    ``P*_CoreDyn`` sampling).
    """

    setting: Setting
    n_instructions: float
    time_s: float
    t1_cycles: float
    mem_time_s: float
    misses_current: float
    lm_current: float
    llc_accesses: float
    core_dynamic_j: float
    core_static_j: float

    # Note on the Eq. 1 decomposition: hardware exposes the dispatch-slot
    # component directly (uops-dispatched style counters), so ``t1_cycles``
    # here bundles branch, cache-hit *and dependency-issue* stall cycles at
    # the current core size — leaving ``t0_cycles`` as the cleanly
    # width-scalable part, exactly the term Eq. 1 scales by D(c_i)/D(c).
    # The residual error of treating dependency stalls as size-invariant is
    # one of the model-error sources the paper's QoS study quantifies.

    def __hash__(self) -> int:
        # Counters objects are memoized per (record, setting) and recur
        # at every boundary of a recurring phase, but the generated
        # dataclass hash re-tuples ten fields per call — and the local
        # memo hashes the key tuple on every probe.  Cache it; equality
        # stays the generated field comparison, and equal instances hash
        # equal because the hash is a pure function of the same fields.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((
                self.setting,
                self.n_instructions,
                self.time_s,
                self.t1_cycles,
                self.mem_time_s,
                self.misses_current,
                self.lm_current,
                self.llc_accesses,
                self.core_dynamic_j,
                self.core_static_j,
            ))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def t0_cycles(self) -> float:
        """Eq. 1's ``T0 = T - T1 - Tmem`` in cycles at the run frequency."""
        f_hz = self.setting.f_ghz * 1e9
        t0 = self.time_s * f_hz - self.t1_cycles - self.mem_time_s * f_hz
        return max(t0, 0.0)

    @property
    def measured_mlp(self) -> float:
        """Average MLP over the interval (Model2's constant-MLP statistic)."""
        if self.lm_current <= 0:
            return 1.0
        return max(1.0, self.misses_current / self.lm_current)

    def effective_memory_latency_s(self, fallback_s: float) -> float:
        """Measured per-leading-miss stall latency over the past interval.

        Eq. 2's ``L_mem`` as the framework actually observes it: total
        memory stall time divided by leading misses, which folds DRAM
        queueing/contention at the current operating point into the
        constant.  Falls back to the nominal latency when the interval had
        no leading misses.
        """
        if self.lm_current <= 0 or self.mem_time_s <= 0:
            return fallback_s
        return self.mem_time_s / self.lm_current

    @property
    def ipc(self) -> float:
        f_hz = self.setting.f_ghz * 1e9
        if self.time_s <= 0:
            return 0.0
        return self.n_instructions / (self.time_s * f_hz)


@dataclass(frozen=True)
class PhaseRecord:
    """Ground-truth database entry for one (application, phase).

    Attributes
    ----------
    app, phase:
        Identifiers.
    n_instructions:
        Nominal interval length (instructions).
    ipc_by_size:
        ``float[3]`` ILP-limited IPC per core size.
    dep_stall_cycles:
        ``float[3]`` dependency-issue stall cycles per interval and core
        size: ``N/IPC(c) - N/D(c)``.  Counted into the measured ``T1`` so
        the counters' ``T0`` is the purely width-scalable dispatch
        component (see :class:`IntervalCounters`).
    branch_cycles:
        Exposed branch-resolution cycles per interval.
    cache_stall_curve:
        ``float[16]`` exposed cache-hit stall cycles per allocation.
    miss_curve:
        ``float[16]`` ground-truth LLC misses per allocation.
    lm_true:
        ``float[3, 16]`` oracle leading misses per (core size, allocation).
    atd_miss_curve, lm_heur:
        The ATD's measured miss curve and Fig. 4 heuristic LM counts —
        what the *online* models see.
    llc_accesses:
        Total LLC accesses per interval.
    time_grid:
        ``float[3, nf, 16]`` ground-truth execution time (s).
    mem_time_grid:
        ``float[3, 16]`` memory stall time (s), frequency-invariant.
    core_dyn_grid:
        ``float[3, nf]`` dynamic core energy (J) per interval.
    core_static_power_grid:
        ``float[3, nf]`` static core power (W).
    mem_energy_curve:
        ``float[16]`` DRAM + LLC dynamic energy (J) per allocation.
    """

    app: str
    phase: str
    n_instructions: float
    ipc_by_size: np.ndarray
    dep_stall_cycles: np.ndarray
    branch_cycles: float
    cache_stall_curve: np.ndarray
    miss_curve: np.ndarray
    lm_true: np.ndarray
    atd_miss_curve: np.ndarray
    lm_heur: np.ndarray
    llc_accesses: float
    time_grid: np.ndarray
    mem_time_grid: np.ndarray
    core_dyn_grid: np.ndarray
    core_static_power_grid: np.ndarray
    mem_energy_curve: np.ndarray
    frequencies_ghz: np.ndarray

    # ------------------------------------------------------------------
    # index helpers
    # ------------------------------------------------------------------
    def f_index(self, f_ghz: float) -> int:
        idx = np.argmin(np.abs(self.frequencies_ghz - f_ghz))
        if abs(self.frequencies_ghz[idx] - f_ghz) > 1e-9:
            raise ValueError(f"{f_ghz} GHz not on the record's ladder")
        return int(idx)

    @staticmethod
    def w_index(ways: int) -> int:
        if not 1 <= ways <= 16:
            raise ValueError("ways must be in 1..16")
        return ways - 1

    # ------------------------------------------------------------------
    # ground-truth lookups
    # ------------------------------------------------------------------
    def time_at(self, setting: Setting) -> float:
        """Ground-truth interval execution time at a setting (seconds)."""
        return float(
            self.time_grid[
                int(setting.core), self.f_index(setting.f_ghz), self.w_index(setting.ways)
            ]
        )

    def tpi_at(self, setting: Setting) -> float:
        """Time per instruction (the RM simulator's progress rate)."""
        return self.time_at(setting) / self.n_instructions

    def energy_at(self, setting: Setting) -> float:
        """Per-interval application energy (core + memory dynamic) at a setting."""
        c = int(setting.core)
        fi = self.f_index(setting.f_ghz)
        wi = self.w_index(setting.ways)
        dyn = self.core_dyn_grid[c, fi]
        static = self.core_static_power_grid[c, fi] * self.time_grid[c, fi, wi]
        return float(dyn + static + self.mem_energy_curve[wi])

    def energy_grid(self) -> np.ndarray:
        """Full ``float[3, nf, 16]`` application-energy grid."""
        dyn = self.core_dyn_grid[:, :, None]
        static = self.core_static_power_grid[:, :, None] * self.time_grid
        return dyn + static + self.mem_energy_curve[None, None, :]

    def misses_at(self, ways: int) -> float:
        return float(self.miss_curve[self.w_index(ways)])

    def lm_at(self, core: CoreSize, ways: int) -> float:
        return float(self.lm_true[int(core), self.w_index(ways)])

    def mlp_at(self, core: CoreSize, ways: int) -> float:
        """Ground-truth MLP at a setting (classification statistic)."""
        lm = self.lm_at(core, ways)
        if lm <= 0:
            return 1.0
        return max(1.0, self.misses_at(ways) / lm)

    def mpki_at(self, ways: int) -> float:
        return self.misses_at(ways) / (self.n_instructions / 1000.0)

    # ------------------------------------------------------------------
    # online-model inputs
    # ------------------------------------------------------------------
    def counters_at(self, setting: Setting) -> IntervalCounters:
        """Hardware counters observed after one interval at ``setting``.

        Memoized per (record, setting): a record is immutable and recurs
        across intervals, so the simulator's boundary path re-reads the
        same counters object instead of re-deriving it.  The returned
        ``IntervalCounters`` is frozen — sharing is safe.
        """
        cache = self.__dict__.setdefault("_counters_cache", {})
        hit = cache.get(setting)
        if hit is not None:
            return hit
        c = int(setting.core)
        fi = self.f_index(setting.f_ghz)
        wi = self.w_index(setting.ways)
        counters = IntervalCounters(
            setting=setting,
            n_instructions=self.n_instructions,
            time_s=float(self.time_grid[c, fi, wi]),
            t1_cycles=float(
                self.branch_cycles
                + self.cache_stall_curve[wi]
                + self.dep_stall_cycles[c]
            ),
            mem_time_s=float(self.mem_time_grid[c, wi]),
            misses_current=float(self.miss_curve[wi]),
            lm_current=float(self.lm_true[c, wi]),
            llc_accesses=float(self.llc_accesses),
            core_dynamic_j=float(self.core_dyn_grid[c, fi]),
            core_static_j=float(
                self.core_static_power_grid[c, fi] * self.time_grid[c, fi, wi]
            ),
        )
        cache[setting] = counters
        return counters

    def rates_at(self, setting: Setting) -> Tuple[float, float, float, float, float, float]:
        """Simulator progress/energy rates at a setting, memoized per record.

        Returns ``(tpi_s, n_instructions, epi_j, work_j_per_inst,
        static_w, ipc)`` — exactly the fields
        :meth:`~repro.simulator.rmsim._CoreStates.refresh_rates` derives,
        computed with the same float operations in the same order, so a
        replay is bit-identical to a fresh derivation.  Rates are a pure
        function of the (immutable record, setting) pair and the pair
        recurs at every interval boundary of a recurring phase, which is
        what makes the wave event loop's boundary path a dict
        lookup instead of five grid reads and an argmin.
        """
        cache = self.__dict__.setdefault("_rates_cache", {})
        hit = cache.get(setting)
        if hit is not None:
            return hit
        c = int(setting.core)
        fi = self.f_index(setting.f_ghz)
        wi = self.w_index(setting.ways)
        n = self.n_instructions
        epi = float(self.core_dyn_grid[c, fi]) / n
        counters_ipc = n / (self.time_grid[c, fi, wi] * setting.f_ghz * 1e9)
        rates = (
            float(self.time_grid[c, fi, wi]) / n,
            n,
            epi,
            epi + float(self.mem_energy_curve[wi]) / n,
            float(self.core_static_power_grid[c, fi]),
            max(float(counters_ipc), 1e-3),
        )
        if rates[0] <= 0:
            # The wave loop validates progress state here (once per new
            # (record, setting) pair) instead of per event; a degenerate
            # time grid must fail loudly, not spin the event loop.
            raise ValueError("invalid progress state")
        cache[setting] = rates
        return rates

    def atd_report(self) -> ATDReport:
        """The ATD's end-of-interval report for this phase.

        Memoized: the report is a frozen view over the record's (immutable)
        arrays, so every interval boundary of a recurring phase hands the
        RM the same object — which also lets the report's content
        fingerprint be computed exactly once.
        """
        cached = self.__dict__.get("_atd_report")
        if cached is None:
            cached = ATDReport(
                miss_curve=self.atd_miss_curve,
                mlp=MLPEstimate(
                    leading_misses=self.lm_heur,
                    total_misses=self.atd_miss_curve,
                    scale=1.0,
                ),
                accesses=self.llc_accesses,
            )
            object.__setattr__(self, "_atd_report", cached)
        return cached

    @property
    def fingerprint(self) -> str:
        """Content hash of the full record (identifies oracle inputs).

        Used by the local-decision memo to key results that depend on the
        *next* interval's ground truth (the Perfect model); online-model
        results key on the counters/ATD content instead.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            import hashlib
            import struct

            h = hashlib.blake2b(digest_size=16)
            h.update(self.app.encode())
            h.update(self.phase.encode())
            h.update(struct.pack("<dd", self.n_instructions, self.llc_accesses))
            h.update(struct.pack("<d", self.branch_cycles))
            for name in (
                "ipc_by_size",
                "dep_stall_cycles",
                "cache_stall_curve",
                "miss_curve",
                "lm_true",
                "atd_miss_curve",
                "lm_heur",
                "time_grid",
                "mem_time_grid",
                "core_dyn_grid",
                "core_static_power_grid",
                "mem_energy_curve",
                "frequencies_ghz",
            ):
                h.update(np.ascontiguousarray(getattr(self, name)).tobytes())
            cached = h.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    # ------------------------------------------------------------------
    def baseline_time(self, system: SystemConfig) -> float:
        return self.time_at(system.baseline_setting())

    def shape_check(self) -> Tuple[int, int, int]:
        """Validate grid shapes; returns (n_sizes, n_freqs, n_ways)."""
        n_sizes, n_freqs, n_ways = self.time_grid.shape
        expected = {
            "ipc_by_size": (n_sizes,),
            "dep_stall_cycles": (n_sizes,),
            "cache_stall_curve": (n_ways,),
            "miss_curve": (n_ways,),
            "lm_true": (n_sizes, n_ways),
            "atd_miss_curve": (n_ways,),
            "lm_heur": (n_sizes, n_ways),
            "mem_time_grid": (n_sizes, n_ways),
            "core_dyn_grid": (n_sizes, n_freqs),
            "core_static_power_grid": (n_sizes, n_freqs),
            "mem_energy_curve": (n_ways,),
            "frequencies_ghz": (n_freqs,),
        }
        for name, shape in expected.items():
            actual = getattr(self, name).shape
            if actual != shape:
                raise ValueError(f"{name} has shape {actual}, expected {shape}")
        return n_sizes, n_freqs, n_ways
