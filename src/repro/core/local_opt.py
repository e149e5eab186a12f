"""Per-core local optimisation (Section III-B).

For every candidate way allocation ``w`` the optimiser searches the
(core size, frequency) plane the manager is allowed to use and selects the
minimum-predicted-energy pair that satisfies QoS, producing

* the energy curve ``E(w)`` handed to the global optimiser,
* the argmin functions ``c*(w)`` and ``f*(w)`` applied once the global
  optimiser fixes ``w``.

RM1 may move neither f nor c (curve points are baseline-setting energies);
RM2 searches f only (the prior-work framework); RM3 searches both.

Two implementations share one contract and are differentially tested
bit-identical:

* :func:`optimize_local` — the unfused reference: performance-model time
  grid, energy-model grid, feasibility mask and masked argmin as four
  separate passes with fresh allocations.  Kept as the differential
  oracle (the replay engine's ``LRUStack`` pattern).
* :class:`LocalOptKernel` — the fused hot path the resource managers
  run: per-(system, capabilities) constants (the capability mask, way
  index window, dispatch widths, frequency/voltage ladders, static-power
  table) are hoisted at construction and the whole grid pipeline runs
  through preallocated scratch buffers — element for element the same
  arithmetic, so results are bit-identical while the per-invocation
  allocations drop to the small per-way output arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CoreSize, Setting, SystemConfig
from repro.core.energy_curve import EnergyCurve
from repro.core.energy_model import OnlineEnergyModel
from repro.core.perf_models import ModelInputs, PerformanceModel
from repro.core import qos as _qos_mod
from repro.core.qos import QoSPolicy

__all__ = [
    "RMCapabilities",
    "LocalOptResult",
    "LocalOptKernel",
    "optimize_local",
]


@dataclass(frozen=True)
class RMCapabilities:
    """Which local resources the manager may change (ways are always on)."""

    adapt_frequency: bool
    adapt_core: bool

    @property
    def label(self) -> str:
        if self.adapt_core:
            return "w+f+c"
        if self.adapt_frequency:
            return "w+f"
        return "w"


@dataclass(frozen=True)
class LocalOptResult:
    """Output of one local optimisation run for one core.

    ``c_star``/``f_star`` are aligned with ``curve.ways``; entries of
    infeasible allocations hold the baseline setting.  ``evaluations`` is
    the number of (c, f, w) grid points examined (overhead accounting).
    """

    curve: EnergyCurve
    c_star: np.ndarray
    f_star: np.ndarray
    t_hat: np.ndarray
    predicted_baseline_time: float
    evaluations: int

    def setting_for(self, ways: int) -> Setting:
        """The (c*, f*, w) setting for an allocation chosen globally.

        Memoized per way on the (immutable) result: the phase memo hands
        a recurring phase the same result object, so its decisions hand
        the simulator the very ``Setting`` objects they handed it last
        time — which is what keeps the simulator's identity diff exact.
        An infeasible allocation yields the baseline (c, f) at ``ways``.
        """
        cache = self.__dict__.setdefault("_settings", {})
        setting = cache.get(ways)
        if setting is None:
            idx = self._index(ways)
            setting = Setting(
                core=CoreSize(int(self.c_star[idx])),
                f_ghz=float(self.f_star[idx]),
                ways=int(ways),
            )
            cache[ways] = setting
        return setting

    def is_feasible(self, ways: int) -> bool:
        return bool(np.isfinite(self.curve.energy[self._index(ways)]))

    def _index(self, ways: int) -> int:
        idx = ways - self.curve.w_min
        if not 0 <= idx < self.curve.ways.size:
            raise ValueError(f"ways {ways} outside optimised domain")
        return idx


def optimize_local(
    inputs: ModelInputs,
    perf_model: PerformanceModel,
    energy_model: OnlineEnergyModel,
    system: SystemConfig,
    caps: RMCapabilities,
    qos: QoSPolicy | None = None,
) -> LocalOptResult:
    """Run the local optimisation for one core.

    Returns the energy curve over the system's candidate way range with the
    per-way argmin settings.
    """
    qos = qos or QoSPolicy(system.qos_alpha)
    baseline = system.baseline_setting()
    freqs = np.array(system.candidate_frequencies())
    sizes = CoreSize.all()

    time_grid = perf_model.predict_time_grid(inputs, system)
    energy_grid = energy_model.predict_energy_grid(inputs, time_grid, system)

    t_base = float(
        time_grid[int(baseline.core), system.dvfs.index_of(baseline.f_ghz), baseline.ways - 1]
    )
    feasible = qos.feasible_mask(time_grid, t_base)

    # Restrict the searchable (c, f) plane to the manager's capabilities.
    allowed = np.ones_like(feasible, dtype=bool)
    if not caps.adapt_core:
        core_mask = np.zeros(len(sizes), dtype=bool)
        core_mask[int(baseline.core)] = True
        allowed &= core_mask[:, None, None]
    if not caps.adapt_frequency:
        f_mask = np.zeros(freqs.size, dtype=bool)
        f_mask[system.dvfs.index_of(baseline.f_ghz)] = True
        allowed &= f_mask[None, :, None]

    candidate = feasible & allowed
    masked_energy = np.where(candidate, energy_grid, np.inf)

    ways = np.array(system.candidate_ways())
    w_idx = ways - 1  # grid axis is 1-based ways
    n_w = ways.size

    c_star = np.full(n_w, int(baseline.core), dtype=int)
    f_star = np.full(n_w, baseline.f_ghz, dtype=float)
    t_hat = np.full(n_w, np.inf)
    e_curve = np.full(n_w, np.inf)

    # Flatten the (c, f) plane per way and take the argmin.
    plane = masked_energy[:, :, w_idx].reshape(-1, n_w)  # (c*f, n_w)
    best = np.argmin(plane, axis=0)
    best_energy = plane[best, np.arange(n_w)]
    finite = np.isfinite(best_energy)
    ci, fi = np.unravel_index(best, (len(sizes), freqs.size))
    c_star[finite] = ci[finite]
    f_star[finite] = freqs[fi[finite]]
    e_curve[finite] = best_energy[finite]
    t_hat[finite] = time_grid[ci[finite], fi[finite], w_idx[finite]]

    return LocalOptResult(
        curve=EnergyCurve(ways, e_curve),
        c_star=c_star,
        f_star=f_star,
        t_hat=t_hat,
        predicted_baseline_time=t_base,
        evaluations=int(np.count_nonzero(allowed[:, :, w_idx])),
    )


def _overrides_time_grid(model: PerformanceModel) -> bool:
    """Whether the model replaces Eq. 1's fused form (the Perfect oracle)."""
    return type(model).predict_time_grid is not PerformanceModel.predict_time_grid


class LocalOptKernel:
    """Fused, scratch-buffered local optimisation for one manager.

    One kernel is built per (performance model, energy model, system,
    capabilities) — exactly a resource manager's lifetime constants — and
    reused for every invocation.  Hoisted at construction: the
    capability-restricted (c, f) plane, the candidate-way window, the
    dispatch widths, the frequency/voltage ladders and the static-power
    table; preallocated: the time grid, energy grid and feasibility
    scratch plus the flattened argmin plane.  :meth:`run` is bit-identical
    to :func:`optimize_local` (differentially tested): it performs the
    same floating-point operations on the same operands in the same
    order, only without re-deriving constants or allocating grids.
    """

    def __init__(
        self,
        perf_model: PerformanceModel,
        energy_model: OnlineEnergyModel,
        system: SystemConfig,
        caps: RMCapabilities,
    ):
        self.perf_model = perf_model
        self.energy_model = energy_model
        self.system = system
        self.caps = caps

        self._baseline = system.baseline_setting()
        sizes = CoreSize.all()
        self._n_sizes = len(sizes)
        # The energy model's memoized per-system constants (shared, not
        # recomputed): ladder frequencies, voltages, size factors and the
        # static-power table.
        freqs, volts, size_factors, static_power = (
            energy_model._system_constants(system)
        )
        self._freqs = freqs
        self._volts = volts
        self._size_factors = size_factors
        self._static_power = static_power
        self._n_freqs = freqs.size
        self._freqs_hz = freqs * 1e9
        from repro.core.perf_models import _dispatch_widths

        self._widths = _dispatch_widths()
        self._base_ci = int(self._baseline.core)
        self._base_fi = system.dvfs.index_of(self._baseline.f_ghz)
        self._base_wi = self._baseline.ways - 1
        self._dyn_size_factor = dict(system.power.dyn_size_factor)
        self._dram_j = energy_model.power.dram_access_energy_j()
        self._llc_j = energy_model.power.llc_access_energy_j()

        ways = np.array(system.candidate_ways())
        if ways.size == 0 or np.any(np.diff(ways) != 1):
            raise ValueError("candidate ways must be a contiguous range")
        self._ways = ways
        self._w_idx = ways - 1  # grid axis is 1-based ways
        self._n_w = ways.size
        self._w_slice = slice(int(self._w_idx[0]), int(self._w_idx[-1]) + 1)
        # Records and ATD reports hold the full 1..w_max way axis.
        self._n_grid_w = system.cache.w_max

        # Capability mask over the (c, f) plane (way-invariant), plus the
        # constant evaluation charge the reference derives from it.
        allowed_cf = np.ones((self._n_sizes, self._n_freqs), dtype=bool)
        if not caps.adapt_core:
            row = np.zeros(self._n_sizes, dtype=bool)
            row[self._base_ci] = True
            allowed_cf &= row[:, None]
        if not caps.adapt_frequency:
            col = np.zeros(self._n_freqs, dtype=bool)
            col[self._base_fi] = True
            allowed_cf &= col[None, :]
        self._allowed_cf3 = allowed_cf[:, :, None]
        self.evaluations = int(np.count_nonzero(allowed_cf)) * self._n_w

        shape = (self._n_sizes, self._n_freqs, self._n_grid_w)
        self._T = np.empty(shape)
        self._E = np.empty(shape)
        self._F = np.empty(shape, dtype=bool)
        self._cc = np.empty(self._n_sizes)
        self._plane = np.empty((self._n_sizes * self._n_freqs, self._n_w))
        self._plane3 = self._plane.reshape(
            self._n_sizes, self._n_freqs, self._n_w
        )
        self._best = np.empty(self._n_w, dtype=np.intp)
        self._arange_w = np.arange(self._n_w)
        self._fused_time = not _overrides_time_grid(perf_model)

    # ------------------------------------------------------------------
    def run(self, inputs: ModelInputs, qos: QoSPolicy | None = None) -> LocalOptResult:
        """One local optimisation, fused; bit-identical to the reference."""
        qos = qos or QoSPolicy(self.system.qos_alpha)
        counters = inputs.counters
        system = self.system

        # --- time grid (Eq. 1) ---------------------------------------
        if self._fused_time:
            T = self._T
            tmem = self.perf_model.memory_time_grid(inputs, system)
            d_i = self._widths[int(counters.setting.core)]
            cc = self._cc
            np.divide(d_i, self._widths, out=cc)
            cc *= counters.t0_cycles
            cc += counters.t1_cycles
            np.divide(cc[:, None, None], self._freqs_hz[None, :, None], out=T)
            T += tmem[:, None, :]
        else:
            # The Perfect oracle substitutes ground truth wholesale; use
            # its grid read-only (never written: it may be the record's).
            T = np.asarray(self.perf_model.predict_time_grid(inputs, system))

        # --- energy grid (Eq. 4-5) -----------------------------------
        E = self._E
        n = counters.n_instructions
        v_i = system.dvfs.voltage(counters.setting.f_ghz)
        epi_sampled = counters.core_dynamic_j / max(n, 1.0)
        f_cur = self._dyn_size_factor[counters.setting.core]
        e_dyn = (
            epi_sampled
            * (self._size_factors / f_cur)[:, None]
            * (self._volts[None, :] / v_i) ** 2
        ) * n  # (n_sizes, n_freqs)
        np.multiply(self._static_power[:, :, None], T, out=E)
        np.add(e_dyn[:, :, None], E, out=E)
        miss_curve = np.asarray(inputs.atd.miss_curve, dtype=float)
        if miss_curve.size != self._n_grid_w:
            raise ValueError("ATD miss curve length mismatch with grid")
        dm = miss_curve - miss_curve[counters.setting.ways - 1]
        e_mem = (
            np.clip(counters.misses_current + dm, 0.0, None) * self._dram_j
            + inputs.atd.accesses * self._llc_j
        )
        np.add(E, e_mem[None, None, :], out=E)

        # --- feasibility + capability mask ---------------------------
        t_base = float(T[self._base_ci, self._base_fi, self._base_wi])
        if t_base <= 0:
            raise ValueError("baseline prediction must be positive")
        bound = t_base * qos.alpha
        F = self._F
        np.less_equal(T, bound * (1.0 + _qos_mod._RTOL), out=F)
        np.logical_and(F, self._allowed_cf3, out=F)
        np.logical_not(F, out=F)  # F is now ~candidate
        np.copyto(E, np.inf, where=F)

        # --- masked argmin over the (c, f) plane per way -------------
        np.copyto(self._plane3, E[:, :, self._w_slice])
        plane = self._plane
        np.argmin(plane, axis=0, out=self._best)
        best = self._best
        best_energy = plane[best, self._arange_w]
        finite = np.isfinite(best_energy)
        ci, fi = np.unravel_index(best, (self._n_sizes, self._n_freqs))

        c_star = np.full(self._n_w, self._base_ci, dtype=int)
        f_star = np.full(self._n_w, self._baseline.f_ghz, dtype=float)
        t_hat = np.full(self._n_w, np.inf)
        e_curve = np.full(self._n_w, np.inf)
        c_star[finite] = ci[finite]
        f_star[finite] = self._freqs[fi[finite]]
        e_curve[finite] = best_energy[finite]
        t_hat[finite] = T[ci[finite], fi[finite], self._w_idx[finite]]

        return LocalOptResult(
            curve=EnergyCurve(self._ways, e_curve),
            c_star=c_star,
            f_star=f_star,
            t_hat=t_hat,
            predicted_baseline_time=t_base,
            evaluations=self.evaluations,
        )

