"""The resource managers: Idle, RM1, RM2, RM3.

A :class:`ResourceManager` lives alongside the multi-core simulator.  At
every interval boundary of core ``j`` the simulator hands it that core's
fresh statistics (:meth:`ResourceManager.observe`); the manager rebuilds the
core's energy curve locally and re-runs the global curve reduction against
the *cached* curves of the other cores ("Other Cores (Already Available)" in
Fig. 3), returning the full new system setting ``{(c*_j, f*_j, w*_j)}``.

Cores that have not yet produced statistics stay pinned at the baseline
allocation via degenerate single-point curves, which keeps the way budget
exactly allocated from the first invocation.

The global step runs in one of two *reduction modes*:

* ``"incremental"`` (default) — the manager owns a persistent
  :class:`~repro.core.global_opt.ReductionTree`; each observe re-runs only
  the O(log n) combines on the invoking core's leaf-to-root path and
  ``dp_operations`` charges exactly that incremental work.
* ``"full_rebuild"`` — every observe rebuilds the whole tree through the
  stateless :func:`~repro.core.global_opt.partition_ways`, preserving the
  per-invocation cost profile of the prior-work framework (and of this
  repo before the persistent kernel) for the Section III-E overheads
  comparison.

The *local* step likewise runs in one of two modes:

* ``"memoized"`` (default) — recurring phase statistics replay their
  :class:`~repro.core.local_opt.LocalOptResult` from a per-manager LRU
  (:class:`~repro.core.local_cache.LocalOptMemo`) keyed on the exact
  content of the optimiser inputs; a hit skips the whole grid pipeline
  — and, when the hit feeds the *same curve object* the reduction tree
  already holds, the leaf-to-root recombine as well (the tree reports
  the identical cell bill through ``path_operations``).  A miss runs the
  fused grid kernel (:class:`~repro.core.local_opt.LocalOptKernel`) and
  stores its result.
* ``"always_recompute"`` — every observe runs the fused grid kernel.

Both event loops of the simulator drive the local step the same way:
one observe per interval boundary, so the memo sees the same gets in
the same order under either loop.

Accounting is mode-invariant by construction: a memo hit charges the
same ``local_evaluations`` the replayed run paid and the same
``dp_operations`` the recombine would have reported — the paper's RM
executes the search either way; our memo only removes *simulator* work.

All four mode combinations select bit-identical settings, predicted
energies and violation histories (the kernel differential tests assert
it); only wall-clock and, across *reduction* modes, the charged DP work
differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import Setting, SystemConfig
from repro.core.energy_curve import EnergyCurve
from repro.core.energy_model import OnlineEnergyModel
from repro.core.local_cache import DEFAULT_CAPACITY, LocalOptMemo, local_memo_key
from repro.core.local_opt import LocalOptKernel, LocalOptResult, RMCapabilities
from repro.core.global_opt import ReductionTree, partition_ways
from repro.core.perf_models import ModelInputs, PerformanceModel
from repro.core.qos import QoSPolicy
from repro.power.model import PowerModel

__all__ = [
    "ResourceManager",
    "IdleRM",
    "RM1",
    "RM2",
    "RM3",
    "make_rm",
    "RMDecision",
    "REDUCTION_MODES",
    "LOCAL_MODES",
]

#: The two accounting/execution modes of the global curve reduction.
REDUCTION_MODES = ("incremental", "full_rebuild")

#: The two execution modes of the local optimisation (accounting is
#: identical in both; only simulator wall-clock differs).
LOCAL_MODES = ("memoized", "always_recompute")


@dataclass(frozen=True)
class RMDecision:
    """One re-optimisation outcome.

    ``local_evaluations``/``dp_operations`` cover only the work done at this
    invocation (one local refresh + one global reduction), matching how the
    paper charges the RM's instruction overhead per invocation.
    """

    settings: Dict[int, Setting]
    local_evaluations: int
    dp_operations: int
    total_predicted_energy: float


@dataclass
class _CoreState:
    result: Optional[LocalOptResult] = None


class ResourceManager:
    """Base class implementing the full decide loop.

    Parameters
    ----------
    system:
        System configuration (grid, budget, baseline).
    perf_model:
        The online performance model (Model1/2/3 or Perfect).
    capabilities:
        Which local resources may be throttled.
    """

    name = "RM"

    def __init__(
        self,
        system: SystemConfig,
        perf_model: PerformanceModel,
        capabilities: RMCapabilities,
        energy_model: OnlineEnergyModel | None = None,
        qos: QoSPolicy | Mapping[int, QoSPolicy] | None = None,
        switch_threshold: float = 0.02,
        reduction: str = "incremental",
        local_mode: str = "memoized",
        local_memo_capacity: int = DEFAULT_CAPACITY,
    ):
        if switch_threshold < 0:
            raise ValueError("switch_threshold must be non-negative")
        if reduction not in REDUCTION_MODES:
            raise ValueError(
                f"unknown reduction mode {reduction!r}; options: {REDUCTION_MODES}"
            )
        if local_mode not in LOCAL_MODES:
            raise ValueError(
                f"unknown local mode {local_mode!r}; options: {LOCAL_MODES}"
            )
        self.reduction = reduction
        self.local_mode = local_mode
        self.system = system
        self.perf_model = perf_model
        self.capabilities = capabilities
        self.energy_model = energy_model or OnlineEnergyModel(
            PowerModel(system.power, system.dvfs, system.memory)
        )
        # QoS may be a single policy (the paper's setup: every application
        # shares alpha) or a per-core mapping — services with different
        # latency slack are the natural deployment of Eq. 3's knob.
        if qos is None:
            self._qos = {i: QoSPolicy(system.qos_alpha) for i in range(system.n_cores)}
        elif isinstance(qos, QoSPolicy):
            self._qos = {i: qos for i in range(system.n_cores)}
        else:
            self._qos = {
                i: qos.get(i, QoSPolicy(system.qos_alpha))
                for i in range(system.n_cores)
            }
        #: Re-partition hysteresis: a new global way assignment is adopted
        #: only when its predicted energy beats re-optimising *at the
        #: current partition* by this relative margin.  Without damping,
        #: symmetric workloads make the pairwise reduction flip between
        #: mirror-image near-equal optima on every invocation (each core's
        #: fresh curve vs the others' stale ones), dragging cores through
        #: transient mis-configurations.
        self.switch_threshold = switch_threshold
        self._cores: Dict[int, _CoreState] = {
            i: _CoreState() for i in range(system.n_cores)
        }
        self._current_ways: Dict[int, int] = {
            i: system.baseline_setting().ways for i in range(system.n_cores)
        }
        #: Effective per-core curves the global step runs over (fresh
        #: local curves once observed, baseline-pinned before that).
        self._curves: List[EnergyCurve] = self._pinned_curves()
        #: Persistent reduction tree (incremental mode; built lazily on
        #: the first observe, dropped on reset).
        self._tree: ReductionTree | None = None
        #: Per-core ways -> Setting memo; a core's entry is dropped when
        #: its local result changes, so every invocation can hand back
        #: the full settings map without re-deriving unchanged cores.
        self._settings_memo: List[Dict[int, Setting]] = [
            {} for _ in range(system.n_cores)
        ]
        #: Fused local-optimisation kernel (scratch buffers + hoisted
        #: constants); one per manager, reused by every invocation.
        self._kernel = LocalOptKernel(
            self.perf_model, self.energy_model, system, capabilities
        )
        #: Phase-level result memo (None in ``always_recompute`` mode).
        self.local_memo: Optional[LocalOptMemo] = (
            LocalOptMemo(local_memo_capacity) if local_mode == "memoized" else None
        )
        #: Per-core predicted energy at (its curve, its current ways) —
        #: the summands of the hysteresis keep-energy check, refreshed
        #: only when a core's curve or allocation actually changes.
        #: ``None`` marks infeasible/out-of-domain (forces re-partition).
        self._energy_at_current: List[Optional[float]] = [
            self._curve_energy_at(c, self._current_ways[i])
            for i, c in enumerate(self._curves)
        ]
        #: Memoized keep-energy sum (``False`` = dirty; wave-only).
        self._keep_energy: object = False
        #: The settings map of the last decision; replayed as-is when an
        #: invocation provably changes nothing (memo-hit invoker + the
        #: hysteresis keep branch).  The simulator uses map *identity*
        #: to skip its per-core setting diff entirely.
        self._last_settings: Optional[Dict[int, Setting]] = None
        #: Wave acceleration of the reduction tree (budget-windowed +
        #: native combines) — enabled by the simulator's wave loop;
        #: results and accounting are bit-identical, only wall-clock
        #: differs, so the scalar oracle leaves it off.  The window
        #: parameters are the run-invariant bounds every leaf curve obeys:
        #: the candidate-way range plus the pinned baseline point.
        self._accelerate = False
        #: The run-invariant baseline setting (hot-path constant).
        self._baseline = system.baseline_setting()
        candidates = system.candidate_ways()
        self._accel_params = (
            system.total_ways,
            min(min(candidates), self._baseline.ways),
            max(max(candidates), self._baseline.ways),
        )

    @property
    def effective_curves(self) -> Tuple[EnergyCurve, ...]:
        """The per-core curves the global step currently runs over: fresh
        local curves once observed, baseline-pinned before that."""
        return tuple(self._curves)

    def _pinned_curves(self) -> List[EnergyCurve]:
        pinned = EnergyCurve.pinned(self.system.baseline_setting().ways)
        return [pinned] * self.system.n_cores

    @staticmethod
    def _curve_energy_at(curve: EnergyCurve, ways: int) -> Optional[float]:
        if not curve.w_min <= ways <= curve.w_max:
            return None
        e = curve.energy[ways - curve.w_min]
        if not np.isfinite(e):
            return None
        return float(e)

    # ------------------------------------------------------------------
    def observe(self, core_id: int, inputs: ModelInputs) -> RMDecision:
        """Interval boundary on ``core_id``: refresh + re-optimise.

        Returns the new per-core settings for the whole system.
        """
        self._core_state(core_id)
        qos = self.qos_for(core_id)
        memo = self.local_memo
        if memo is not None:
            key = local_memo_key(inputs, self.perf_model, qos)
            result = memo.get(key)
            if result is None:
                result = self._kernel.run(inputs, qos)
                memo.put(key, result)
        else:
            result = self._kernel.run(inputs, qos)
        return self._reoptimize(core_id, result)

    def qos_for(self, core_id: int) -> QoSPolicy:
        """The QoS policy governing one core's application."""
        if core_id not in self._qos:
            raise KeyError(f"unknown core {core_id}")
        return self._qos[core_id]

    def set_wave_acceleration(self, enabled: bool) -> None:
        """Toggle the accelerated reduction path for future trees.

        The simulator's wave loop turns this on at run start (right
        after ``reset``, while no tree exists); the next lazily built
        tree then combines through the budget-windowed/native kernel.
        Decisions and accounting are bit-identical either way — the
        windowed combine materialises only columns no feasible split can
        avoid touching and charges the nominal cell bill — so the knob
        only moves wall-clock.  An already built tree keeps its mode (a
        mid-run rebuild would re-charge build operations).
        """
        self._accelerate = bool(enabled)

    def _core_state(self, core_id: int) -> _CoreState:
        if core_id not in self._cores:
            raise KeyError(f"unknown core {core_id}")
        return self._cores[core_id]

    def _reoptimize(self, changed_core: int, result: LocalOptResult) -> RMDecision:
        baseline = self._baseline
        state = self._cores[changed_core]
        #: A memo hit that replays the exact result object whose curve the
        #: reduction already holds leaves the whole global state
        #: untouched: the recombine (and, on the keep branch, the
        #: settings rebuild) can be skipped while charging identical
        #: operation counts.
        unchanged = (
            state.result is result
            and self._curves[changed_core] is result.curve
        )
        state.result = result
        if not unchanged:
            if not result.curve.has_feasible_point():
                self._curves[changed_core] = EnergyCurve.pinned(baseline.ways)
            else:
                self._curves[changed_core] = result.curve
            self._settings_memo[changed_core].clear()
            self._energy_at_current[changed_core] = self._curve_energy_at(
                self._curves[changed_core], self._current_ways[changed_core]
            )
            self._keep_energy = False
        curves = self._curves
        total_energy, dp_operations, extract_ways = self._partition(
            changed_core, unchanged
        )

        keep_energy = self._energy_at_partition()
        last = self._last_settings
        if keep_energy is not None and (
            keep_energy - total_energy < self.switch_threshold * abs(keep_energy)
        ):
            # Not worth re-partitioning: keep the current way split but
            # still refresh the per-way optimal (c, f) choices.  The
            # optimal allocation is never extracted in this branch.
            if unchanged and last is not None:
                # Nothing moved at all: replay the previous settings map
                # (same object — the simulator skips its diff on it).
                return RMDecision(
                    settings=last,
                    local_evaluations=result.evaluations,
                    dp_operations=dp_operations,
                    total_predicted_energy=keep_energy,
                )
            if last is not None and self._accelerate:
                # Only the invoking core's local result is fresh and the
                # way split is kept, so every other core's entry in the
                # previous map is still value-correct for its allocation.
                # If the invoker's (c*, f*) at its kept allocation comes
                # out value-equal too, the previous map *is* this
                # decision — replay it by identity and the simulator
                # skips its whole settings diff.  (Wave-only, like every
                # acceleration: the scalar oracle keeps the PR-4 cost
                # profile; the decision *values* are identical either
                # way.)
                setting_b = self._setting_for(
                    changed_core, self._current_ways[changed_core], baseline
                )
                if setting_b == last[changed_core]:
                    return RMDecision(
                        settings=last,
                        local_evaluations=result.evaluations,
                        dp_operations=dp_operations,
                        total_predicted_energy=keep_energy,
                    )
                # The kept split leaves every other core's entry as-is;
                # only the invoker's (c*, f*) moved.
                settings = dict(last)
                settings[changed_core] = setting_b
                self._last_settings = settings
                return RMDecision(
                    settings=settings,
                    local_evaluations=result.evaluations,
                    dp_operations=dp_operations,
                    total_predicted_energy=keep_energy,
                )
            ways = [self._current_ways[i] for i in range(self.system.n_cores)]
            total_energy = keep_energy
        else:
            ways = extract_ways()

        if last is None or not self._accelerate:
            settings: Dict[int, Setting] = {}
            for i, w in enumerate(ways):
                w = int(w)
                settings[i] = self._setting_for(i, w, baseline)
                if w != self._current_ways[i]:
                    self._current_ways[i] = w
                    self._energy_at_current[i] = self._curve_energy_at(
                        curves[i], w
                    )
                    self._keep_energy = False
        else:
            # Accelerated rebuild from the previous map: a core whose
            # allocation did not move keeps its (value-correct) entry —
            # only moved cores and the invoking core (whose per-way memo
            # was just invalidated) re-derive their setting.
            settings = dict(last)
            for i, w in enumerate(ways):
                w = int(w)
                if w != self._current_ways[i]:
                    settings[i] = self._setting_for(i, w, baseline)
                    self._current_ways[i] = w
                    self._energy_at_current[i] = self._curve_energy_at(
                        curves[i], w
                    )
                    self._keep_energy = False
                elif i == changed_core:
                    settings[i] = self._setting_for(i, w, baseline)
        self._last_settings = settings
        return RMDecision(
            settings=settings,
            local_evaluations=result.evaluations,
            dp_operations=dp_operations,
            total_predicted_energy=total_energy,
        )

    def _setting_for(self, i: int, w: int, baseline: Setting) -> Setting:
        """The memoized per-way setting of one core (see ``_settings_memo``)."""
        memo = self._settings_memo[i]
        setting = memo.get(w)
        if setting is None:
            core_result = self._cores[i].result
            if core_result is None or not core_result.is_feasible(w):
                # No observations yet (pinned curve) or a defensive
                # fallback for an infeasible pick: baseline (c, f) at w.
                setting = baseline.replace(ways=w)
            else:
                setting = core_result.setting_for(w)
            memo[w] = setting
        return setting

    def _partition(self, changed_core: int, leaf_unchanged: bool = False):
        """Run the global reduction in the configured mode.

        Returns ``(total_energy, dp_operations, extract_ways)`` with the
        allocation walk deferred (hysteresis usually discards it).
        Incremental: re-run only the changed leaf's path combines on the
        persistent tree (building it once after a reset) plus the root
        window evaluation; ``dp_operations`` charges exactly that work —
        and when the caller proves the leaf's curve object is unchanged,
        the combines are skipped outright while
        :meth:`~repro.core.global_opt.ReductionTree.path_operations`
        reports the identical bill.
        Full rebuild: the stateless reduction, charging every combine —
        today's accounting, kept for the Section III-E overheads table.
        """
        if self.reduction == "full_rebuild":
            result = partition_ways(self._curves, self.system.total_ways)
            return (
                result.total_energy,
                result.dp_operations,
                lambda: list(result.ways),
            )
        if self._tree is None:
            self._tree = ReductionTree(
                self._curves,
                acceleration=self._accel_params if self._accelerate else None,
            )
            ops = self._tree.build_operations
        elif leaf_unchanged:
            ops = self._tree.path_operations(changed_core)
        else:
            ops = self._tree.update(changed_core, self._curves[changed_core])
        total, eval_ops, extract = self._tree.evaluate(self.system.total_ways)
        return total, ops + eval_ops, extract

    def _energy_at_partition(self) -> float | None:
        """Predicted total energy of keeping the current way partition.

        None when any core's current allocation is infeasible or outside
        its fresh curve (forcing a re-partition).  Sums the per-core
        cached values left to right — the same floats in the same order
        as reading each curve directly, hence bit-compatible.  Under
        wave acceleration the sum is memoized until any summand changes
        (``_keep_energy`` sentinel ``False`` = dirty): re-summing
        unchanged floats in the same order reproduces the identical
        total, so the replay is exact.
        """
        if self._accelerate and self._keep_energy is not False:
            return self._keep_energy
        total = 0.0
        for e in self._energy_at_current:
            if e is None:
                total = None
                break
            total += e
        self._keep_energy = total
        return total

    def reset(self) -> None:
        baseline = self.system.baseline_setting()
        for state in self._cores.values():
            state.result = None
        for i in self._current_ways:
            self._current_ways[i] = baseline.ways
        self._curves = self._pinned_curves()
        self._tree = None
        for memo in self._settings_memo:
            memo.clear()
        self._energy_at_current = [
            self._curve_energy_at(c, self._current_ways[i])
            for i, c in enumerate(self._curves)
        ]
        self._keep_energy = False
        self._last_settings = None
        if self.local_memo is not None:
            self.local_memo.clear()


class IdleRM(ResourceManager):
    """The normalisation baseline: never moves away from the fixed setting."""

    name = "Idle"

    def __init__(self, system: SystemConfig, perf_model: PerformanceModel | None = None):
        super().__init__(
            system,
            perf_model or _NullModel(),
            RMCapabilities(adapt_frequency=False, adapt_core=False),
        )
        self._idle_settings: Optional[Dict[int, Setting]] = None

    def observe(self, core_id: int, inputs: ModelInputs) -> RMDecision:
        self._core_state(core_id)  # validate the id
        # The map is invariant between resets: build it once and hand the
        # same object back every boundary — the simulator recognises the
        # identity and skips its per-core setting diff outright.
        settings = self._idle_settings
        if settings is None:
            baseline = self.system.baseline_setting()
            settings = {i: baseline for i in range(self.system.n_cores)}
            self._idle_settings = settings
        return RMDecision(
            settings=settings,
            local_evaluations=0,
            dp_operations=0,
            total_predicted_energy=float("nan"),
        )

    def reset(self) -> None:
        super().reset()
        self._idle_settings = None


class _NullModel(PerformanceModel):
    name = "null"

    def memory_time_grid(self, inputs, system):  # pragma: no cover - never called
        raise NotImplementedError


class RM1(ResourceManager):
    """LLC partitioning only (ways move, f and c stay at baseline)."""

    name = "RM1"

    def __init__(self, system: SystemConfig, perf_model: PerformanceModel, **kw):
        super().__init__(
            system,
            perf_model,
            RMCapabilities(adapt_frequency=False, adapt_core=False),
            **kw,
        )


class RM2(ResourceManager):
    """LLC partitioning + per-core DVFS (the prior-work manager)."""

    name = "RM2"

    def __init__(self, system: SystemConfig, perf_model: PerformanceModel, **kw):
        super().__init__(
            system,
            perf_model,
            RMCapabilities(adapt_frequency=True, adapt_core=False),
            **kw,
        )


class RM3(ResourceManager):
    """The proposed manager: LLC partitioning + DVFS + core adaptation."""

    name = "RM3"

    def __init__(self, system: SystemConfig, perf_model: PerformanceModel, **kw):
        super().__init__(
            system,
            perf_model,
            RMCapabilities(adapt_frequency=True, adapt_core=True),
            **kw,
        )


_RM_REGISTRY = {"idle": IdleRM, "rm1": RM1, "rm2": RM2, "rm3": RM3}


def make_rm(
    kind: str, system: SystemConfig, perf_model: PerformanceModel | None = None, **kw
) -> ResourceManager:
    """Factory: ``kind`` in {"idle", "rm1", "rm2", "rm3"}."""
    key = kind.lower()
    if key not in _RM_REGISTRY:
        raise ValueError(f"unknown RM kind {kind!r}; options: {sorted(_RM_REGISTRY)}")
    cls = _RM_REGISTRY[key]
    if cls is IdleRM:
        return IdleRM(system, perf_model)
    if perf_model is None:
        raise ValueError(f"{kind} requires a performance model")
    return cls(system, perf_model, **kw)
