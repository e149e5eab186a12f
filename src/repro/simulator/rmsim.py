"""The multi-core RM simulator.

A fluid event-driven model of Fig. 5: every core executes 100M-instruction
intervals whose duration comes from the database TPI at the core's current
(phase, setting).  At each per-core interval boundary the RM is invoked with
that interval's hardware counters and ATD report; the returned system-wide
setting is applied immediately (mid-interval for the other cores — their
progress rates simply change), and enforcement overheads are charged:

* RM execution — extra instructions on the invoking core (its IPC and
  frequency price them into stall time and dynamic energy),
* DVFS switches — 15 us / 3 uJ per core whose V/f changed,
* core resizing — a pipeline-drain stall.

Energy integrates continuously: dynamic core + memory energy are
work-proportional (per instruction at the current setting), static power
accrues over wall-clock time including stalls.  Accounting for each core
stops at the instruction horizon; simulation (and uncore energy) continues
until every core reaches it (Section IV-D1).

Per-core execution state lives in a struct-of-arrays container
(:class:`_CoreStates`), so a wave-loop event costs one compiled call
instead of a Python loop over cores.

The event loop itself runs in one of two *wave modes*:

* ``"step"`` (default) — the wave loop.  Each event is one compiled
  call (:meth:`_CoreStates.next_event`, the ``wave_event`` kernel of
  :mod:`repro.core._native_opt`): it picks the next boundary and
  advances every core to it.  The rare finish-adjacent event (at most
  one per core per run) advances through the scalar loop's
  :func:`advance_cores_reference`, and without a compiler every event
  is the scalar loop's step (the replay engine's no-compiler rule: the
  oracle, not a third implementation).  The loop then makes the
  boundary core's observe, as the scalar loop does, replays
  progress/energy rates from the per-record memo
  (:meth:`~repro.database.records.PhaseRecord.rates_at`) and applies
  decisions via one settings diff against the struct-of-arrays state.
  What recurs at every boundary is interned per run: the model inputs,
  baseline time and next rates per (record, setting, next record), and
  the RM instructions per operation bill.  The diff adopts each
  unchanged core's object from the decision, so its identity pre-pass
  holds from then on.  Event *sequencing* is untouched — boundaries
  drain one at a time in the scalar order — so full runs are bit-identical
  to the scalar oracle (differentially tested across RMs × models ×
  overheads × reduction/local modes), and so is the manager's memo
  traffic.
* ``"scalar"`` — the event loop's differential-testing oracle (the
  replay engine's ``LRUStack`` pattern): the per-core boundary pick
  (:func:`~repro.simulator.events.next_boundary`) and advance
  (:func:`advance_cores_reference`), one core's observe, a value diff
  of every core's setting and a rate refresh per stale core.

Both loops drive the manager through the same path; only this module
knows which loop runs.

The mode resolves from the constructor argument, then ``REPRO_SIM_WAVE``
(:mod:`repro.settings`; ``--wave`` on the CLI), then the ``"step"``
default.
"""

from __future__ import annotations

import ctypes
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.cache.partition import RepartitionTransient
from repro.config import Setting, SystemConfig
from repro.core import _native_opt
from repro.core.managers import ResourceManager
from repro.core.overheads import RMCostModel
from repro.core.perf_models import ModelInputs
from repro.database.builder import SimDatabase
from repro.database.records import PhaseRecord
from repro.power.dvfs import DVFSController
from repro.power.energy import EnergyBreakdown
from repro.settings import WAVE_MODES
from repro.simulator.events import next_boundary
from repro.simulator.metrics import SettingChange, SimResult

__all__ = [
    "MulticoreRMSimulator",
    "WAVE_MODES",
    "advance_cores_reference",
]

#: Violations smaller than this relative slack are float noise, not QoS misses.
_VIOLATION_EPS = 1e-6

#: Name of the event-loop mode's environment variable, for scripts that
#: report the mode a process resolves.
WAVE_ENV = settings.ENV["wave"]

#: The per-core arrays the wave loop reads and writes one core at a time,
#: each viewed in :attr:`_CoreStates.scalars`.
_SCALAR_VIEWS = (
    "stall_s", "tpi_s", "instr_done", "interval_elapsed_s", "n_instructions",
    "epi_j", "work_j_per_inst", "static_w", "ipc", "finished", "overhead_j",
)

#: ``wave_event``'s scalar slots after its pointers: horizon, n, dt.
_EV_HORIZON = len(_native_opt.EVENT_SLOTS)
_EV_DT = _EV_HORIZON + 2


def _scalar_view(buf, fmt: Optional[str] = None) -> memoryview:
    """A flat memoryview of ``buf``'s own memory as ``fmt`` elements
    (a NumPy array's dtype by default)."""
    return memoryview(buf).cast("B").cast(fmt or buf.dtype.char)


class _CoreStates:
    """Struct-of-arrays execution state for all cores.

    Numeric per-core state is one NumPy array per field; object state
    (phase record, current setting) stays in aligned Python lists.  Rates
    are refreshed per core (:meth:`refresh_rates`) only when that core's
    (record, setting) pair actually changed — the refreshed values are a
    pure function of the pair, so skipping untouched cores is exact.

    For the wave loop the container additionally diffs a decision's
    settings against the current ones (:meth:`diff_settings`) and owns
    the compiled kernel's scratch buffers and slot table
    (:meth:`next_event`).  :attr:`scalars` holds a memoryview of each
    array the wave loop touches one core at a time (same buffers, named
    like the arrays): an element read or write through it skips NumPy's
    scalar boxing, and reads return the same doubles as Python floats.
    The arrays stay the storage of the compiled and reference paths.
    ``rate_refreshes`` counts every rate derivation (memoized or
    not) — the wave tests assert that replayed settings maps trigger
    exactly one refresh per boundary.
    """

    __slots__ = (
        "n",
        "stall_s",
        "tpi_s",
        "instr_done",
        "total_instr",
        "interval_elapsed_s",
        "n_instructions",
        "epi_j",
        "work_j_per_inst",
        "static_w",
        "ipc",
        "finished",
        "core_dynamic_j",
        "core_static_j",
        "memory_j",
        "overhead_j",
        "records",
        "settings",
        "intervals",
        "apps",
        "rate_refreshes",
        "n_active",
        "_active",
        "scalars",
        "_evlib",
        "_ev_addr",
        "_ev_slots",
        "_ev_table",
        "_dts",
        "_remaining",
        "_dinstr",
    )

    def __init__(self, n: int):
        self.n = n
        self.stall_s = np.zeros(n)
        self.tpi_s = np.ones(n)
        self.instr_done = np.zeros(n)
        self.total_instr = np.zeros(n)
        self.interval_elapsed_s = np.zeros(n)
        self.n_instructions = np.zeros(n)
        self.epi_j = np.zeros(n)
        self.work_j_per_inst = np.zeros(n)
        self.static_w = np.zeros(n)
        self.ipc = np.ones(n)
        self.finished = np.zeros(n, dtype=bool)
        self.core_dynamic_j = np.zeros(n)
        self.core_static_j = np.zeros(n)
        self.memory_j = np.zeros(n)
        self.overhead_j = np.zeros(n)
        self.records: List[PhaseRecord] = [None] * n  # type: ignore[list-item]
        self.settings: List[Setting] = [None] * n  # type: ignore[list-item]
        self.intervals: List[int] = [0] * n
        self.apps: List[str] = [""] * n
        self.rate_refreshes = 0
        #: ``~finished`` maintained as its own array (wave-loop guard
        #: reductions read it every event), and its count.
        self._active = np.ones(n, dtype=bool)
        self.n_active = n
        # Scratch buffers of the compiled event kernel.
        self._dts = np.empty(n)
        self._remaining = np.empty(n)
        self._dinstr = np.empty(n)
        self.scalars = SimpleNamespace(
            **{name: _scalar_view(getattr(self, name)) for name in _SCALAR_VIEWS}
        )
        #: Compiled per-event kernel (None when no compiler).  Its slot
        #: table holds one pointer per array above, built once (every
        #: array lives for the container's lifetime and is only ever
        #: updated in place), then the horizon, ``n`` and ``dt`` slots;
        #: :attr:`_ev_slots` views the table's doubles.
        self._evlib = _native_opt.raw_lib()
        if self._evlib is not None:
            self._ev_table = (ctypes.c_uint64 * (_EV_DT + 1))(
                *(getattr(self, name).ctypes.data for name in _native_opt.EVENT_SLOTS)
            )
            self._ev_table[_EV_HORIZON + 1] = n
            self._ev_addr = ctypes.addressof(self._ev_table)
            self._ev_slots = _scalar_view(self._ev_table, "d")

    def refresh_rates(self, i: int) -> None:
        rec, s = self.records[i], self.settings[i]
        self.tpi_s[i] = rec.tpi_at(s)
        c, fi, wi = int(s.core), rec.f_index(s.f_ghz), rec.w_index(s.ways)
        n = rec.n_instructions
        self.n_instructions[i] = n
        epi = float(rec.core_dyn_grid[c, fi]) / n
        self.epi_j[i] = epi
        self.work_j_per_inst[i] = epi + float(rec.mem_energy_curve[wi]) / n
        self.static_w[i] = float(rec.core_static_power_grid[c, fi])
        counters_ipc = n / (rec.time_grid[c, fi, wi] * s.f_ghz * 1e9)
        self.ipc[i] = max(float(counters_ipc), 1e-3)
        self.rate_refreshes += 1

    def refresh_rates_memo(self, i: int, rates: Optional[tuple] = None) -> None:
        """:meth:`refresh_rates` through the per-record rates memo.

        :meth:`PhaseRecord.rates_at` performs the identical float
        operations, so the assigned values are bit-equal; recurring
        (record, setting) pairs — every steady-state boundary — replay a
        cached tuple instead of re-deriving five grid reads and a ladder
        argmin.  ``rates``, when given, is that tuple for core ``i``'s
        current (record, setting), already looked up by the caller.
        Finished cores keep their energy rates pinned at zero (they still
        make progress — tpi and ipc stay real — but accrue no energy, as
        in :func:`advance_cores_reference`).  Reads and writes go
        through :attr:`scalars`, the arrays' own buffers.
        """
        if rates is None:
            rates = self.records[i].rates_at(self.settings[i])
        v = self.scalars
        v.tpi_s[i], v.n_instructions[i], epi, work, static, v.ipc[i] = rates
        if v.finished[i]:
            epi = work = static = 0.0
        v.epi_j[i] = epi
        v.work_j_per_inst[i] = work
        v.static_w[i] = static
        self.rate_refreshes += 1

    def zero_finished_rates(self, mask: np.ndarray) -> None:
        """Pin just-finished cores' energy rates to exact zeros.

        Lets the compiled advance update every core unmasked: finished
        cores then contribute ``+0.0`` per event — the bitwise identity
        on their (non-negative) accumulators.
        """
        self.epi_j[mask] = 0.0
        self.work_j_per_inst[mask] = 0.0
        self.static_w[mask] = 0.0

    def diff_settings(self, settings_map: Dict[int, Setting]) -> List[int]:
        """Value-diff a decision map against the current settings.

        Identity pre-pass first: a core whose setting did not move
        receives the very object already applied (the managers hand out
        per-result memoized settings), so one pointer compare per core
        prunes the candidate set to the fresh objects.  A candidate whose
        value is unchanged is *adopted*: the container keeps the map's
        object, so the pre-pass holds for that core at every later map
        (the first map swaps the run's own baseline objects out this
        way).  A changed core is left to the caller, which prices its
        transition from the old setting before applying the new one.
        Every candidate is value-compared (``==`` on :class:`Setting`
        compares core, frequency and ways).  Returns the changed core ids
        ascending (the scalar loop's visit order).
        """
        settings = self.settings
        changed = []
        for i in range(self.n):
            new = settings_map[i]
            if new is not settings[i]:
                if new == settings[i]:
                    settings[i] = new
                else:
                    changed.append(i)
        return changed

    def finished_all(self) -> bool:
        """Every core reached the horizon (wave loop:
        :meth:`_retire_finished` keeps :attr:`n_active`)."""
        return self.n_active == 0

    def next_event(self, horizon: float) -> Tuple[int, float]:
        """One wave-loop event: pick the next boundary and advance to it.

        Returns ``(b, dt)``: the boundary core and the wall-clock step to
        its boundary.  With a compiler this is one ``wave_event`` call on
        the slot table, after one memoryview write of ``horizon`` into
        it; the kernel writes ``dt`` back there and returns ``b``.  A
        finish-adjacent event returns ``-1 - b`` with no core state
        touched and advances through :func:`advance_cores_reference`.
        Without a compiler every event is the scalar loop's own step:
        :func:`~repro.simulator.events.next_boundary` over the arrays'
        lists, then :func:`advance_cores_reference`.  Either way a
        reference advance ends in :meth:`_retire_finished`; the two paths
        are bit-identical (differentially tested).
        """
        lib = self._evlib
        if lib is None:
            remaining = np.maximum(self.n_instructions - self.instr_done, 0.0)
            boundary = next_boundary(
                self.stall_s.tolist(), remaining.tolist(), self.tpi_s.tolist()
            )
            b, dt = boundary.core_id, boundary.dt_s
        else:
            slots = self._ev_slots
            slots[_EV_HORIZON] = horizon
            b = lib.wave_event(self._ev_addr)
            dt = slots[_EV_DT]
            if b >= 0:
                return b, dt
            b = -1 - b
        advance_cores_reference(self, dt, horizon)
        self._retire_finished()
        return b, dt

    def _retire_finished(self) -> None:
        """Retire the cores a reference advance just finished: clear
        their :attr:`_active` flags, lower :attr:`n_active` and pin their
        energy rates to zero, so the kernel's unmasked advance stays
        exact."""
        newly = self.finished & self._active
        if newly.any():
            self._active[newly] = False
            self.n_active -= int(np.count_nonzero(newly))
            self.zero_finished_rates(newly)

    def energy_breakdowns(self) -> List[EnergyBreakdown]:
        return [
            EnergyBreakdown(
                core_dynamic_j=float(self.core_dynamic_j[i]),
                core_static_j=float(self.core_static_j[i]),
                memory_j=float(self.memory_j[i]),
                overhead_j=float(self.overhead_j[i]),
            )
            for i in range(self.n)
        ]


def advance_cores_reference(st: _CoreStates, dt: float, horizon: float) -> None:
    """Advance every core by ``dt`` seconds of wall-clock time, one core
    at a time: the scalar loop's advance, the compiled ``wave_event``'s
    oracle, and the wave loop's advance on finish-adjacent events and
    without a compiler."""
    if dt < 0:
        raise ValueError("dt must be non-negative")
    for i in range(st.n):
        served_stall = min(float(st.stall_s[i]), dt)
        run_time = dt - served_stall
        st.stall_s[i] -= served_stall
        d_instr = run_time / float(st.tpi_s[i]) if run_time > 0 else 0.0
        remaining = max(float(st.n_instructions[i]) - float(st.instr_done[i]), 0.0)
        d_instr = min(d_instr, remaining + 1e-6)

        if not st.finished[i]:
            total = float(st.total_instr[i])
            epi = float(st.epi_j[i])
            work = float(st.work_j_per_inst[i])
            if total + d_instr >= horizon and d_instr > 0:
                counted = max(horizon - total, 0.0)
                frac = counted / d_instr if d_instr > 0 else 0.0
                st.core_dynamic_j[i] += epi * counted
                st.memory_j[i] += (work - epi) * counted
                st.core_static_j[i] += float(st.static_w[i]) * dt * frac
                st.finished[i] = True
            else:
                st.core_dynamic_j[i] += epi * d_instr
                st.memory_j[i] += (work - epi) * d_instr
                st.core_static_j[i] += float(st.static_w[i]) * dt
                if d_instr == 0.0 and total >= horizon:
                    st.finished[i] = True

        st.instr_done[i] += d_instr
        st.total_instr[i] += d_instr
        st.interval_elapsed_s[i] += dt


class MulticoreRMSimulator:
    """Drives one workload under one resource manager.

    Parameters
    ----------
    db:
        Simulation database (must cover every workload application).
    rm:
        The resource manager (Idle, RM1, RM2 or RM3 with any model).  QoS
        is checked against its ``system.qos_alpha``, the budget it
        optimises for.
    charge_overheads:
        Disable to reproduce the paper's "perfect ... overheads" studies
        (Fig. 2 uses perfect models *and* no overheads).
    wave:
        Event-loop mode (:data:`WAVE_MODES`); None resolves from
        ``REPRO_SIM_WAVE``, default ``"step"``.  Both modes produce
        bit-identical results; only wall-clock differs.
    """

    def __init__(
        self,
        db: SimDatabase,
        rm: ResourceManager,
        repartition_transient: RepartitionTransient | None = None,
        charge_overheads: bool = True,
        collect_history: bool = False,
        wave: str | None = None,
    ):
        self.db = db
        self.system: SystemConfig = db.system
        self.rm = rm
        self.cost_model = RMCostModel()
        self.dvfs = DVFSController(self.system.dvfs)
        self.repartition = repartition_transient or RepartitionTransient(
            way_kb=self.system.cache.way_kb(),
            block_bytes=self.system.cache.block_bytes,
        )
        self.charge_overheads = charge_overheads
        self.collect_history = collect_history
        if wave is None:
            wave = settings.current().wave
        if wave not in WAVE_MODES:
            raise ValueError(
                f"unknown wave mode {wave!r}; options: {WAVE_MODES}"
            )
        self.wave = wave

    # ------------------------------------------------------------------
    def run(
        self,
        apps: Sequence[str],
        horizon_intervals: Optional[int] = None,
        max_events: int = 1_000_000,
    ) -> SimResult:
        """Simulate one workload to its instruction horizon.

        Parameters
        ----------
        apps:
            One application name per core.
        horizon_intervals:
            Override the horizon (defaults to the longest application's
            pass length, the paper's "longest application" rule).
        """
        system = self.system
        n_cores = system.n_cores
        if len(apps) != n_cores:
            raise ValueError(
                f"workload has {len(apps)} apps for {n_cores} cores"
            )
        for name in apps:
            if name not in self.db.records:
                raise KeyError(f"application {name!r} not in database")
        self.rm.reset()

        n_interval = system.scale.interval_instructions
        if horizon_intervals is None:
            horizon_intervals = max(self.db.apps[name].n_intervals for name in apps)
        horizon = float(horizon_intervals) * n_interval

        baseline = system.baseline_setting()
        st = _CoreStates(n_cores)
        for cid, name in enumerate(apps):
            st.apps[cid] = name
            st.records[cid] = self.db.record_for_interval(name, 0)
            st.settings[cid] = baseline
            st.refresh_rates(cid)

        history: Optional[List[SettingChange]] = [] if self.collect_history else None
        if self.wave == "scalar":
            totals = self._loop_scalar(st, horizon, baseline, max_events, history)
        else:
            totals = self._loop_wave(st, horizon, baseline, max_events, history)
        (
            t,
            intervals_completed,
            qos_checks,
            violations,
            rm_invocations,
            rm_instructions,
        ) = totals

        uncore_power = self.rm.energy_model.power.uncore_power_w(n_cores)
        return SimResult(
            rm_name=self.rm.name,
            apps=tuple(apps),
            per_core_energy=st.energy_breakdowns(),
            uncore_j=uncore_power * t,
            t_end_s=t,
            horizon_instructions=horizon,
            intervals_completed=intervals_completed,
            qos_checks=qos_checks,
            violations=violations,
            rm_invocations=rm_invocations,
            rm_instructions=rm_instructions,
            history=history,
        )

    # ------------------------------------------------------------------
    def _loop_scalar(
        self,
        st: _CoreStates,
        horizon: float,
        baseline: Setting,
        max_events: int,
        history: Optional[List[SettingChange]],
    ) -> Tuple[float, int, int, List[float], int, float]:
        """The event loop's oracle: per-core boundary pick and advance,
        one core's observe, a value diff of every core's setting."""
        n_cores = st.n
        alpha = self.rm.system.qos_alpha
        t = 0.0
        intervals_completed = 0
        qos_checks = 0
        violations: List[float] = []
        rm_invocations = 0
        rm_instructions = 0.0
        #: The settings map applied last.  Managers whose decision changes
        #: nothing hand the *same object* back (the memoized fast path,
        #: and IdleRM's per-reset constant map); identity proves every
        #: per-core comparison in the diff loop below would be a no-op.
        applied_settings: Optional[Dict[int, Setting]] = None

        for _ in range(max_events):
            if np.all(st.finished):
                break
            # instr_done may overshoot by the advance clamp's epsilon;
            # never count negative work.
            remaining = np.maximum(st.n_instructions - st.instr_done, 0.0)
            boundary = next_boundary(
                st.stall_s.tolist(), remaining.tolist(), st.tpi_s.tolist()
            )
            dt = boundary.dt_s
            advance_cores_reference(st, dt, horizon)
            t += dt

            # Interval boundary on the triggering core.
            b = boundary.core_id
            elapsed = float(st.interval_elapsed_s[b])
            record = st.records[b]
            setting = st.settings[b]
            base_time = record.time_at(baseline)
            if not st.finished[b]:
                qos_checks += 1
                rel = (elapsed - base_time * alpha) / base_time
                if rel > _VIOLATION_EPS:
                    violations.append(rel)
            intervals_completed += 1

            # Move to the next interval before asking the RM, so the Perfect
            # model sees the true next phase.
            counters = record.counters_at(setting)
            atd = record.atd_report()
            st.intervals[b] += 1
            st.instr_done[b] = 0.0
            st.interval_elapsed_s[b] = 0.0
            st.records[b] = self.db.record_for_interval(st.apps[b], st.intervals[b])

            inputs = ModelInputs(
                counters=counters, atd=atd, next_record=st.records[b]
            )
            decision = self.rm.observe(b, inputs)
            rm_invocations += 1

            if self.charge_overheads and (
                decision.local_evaluations or decision.dp_operations
            ):
                instr = self.cost_model.instructions(
                    n_cores,
                    decision.local_evaluations,
                    decision.dp_operations,
                )
                rm_instructions += instr
                st.stall_s[b] += self.cost_model.time_overhead_s(
                    instr, float(st.ipc[b]), setting.f_ghz
                )
                if not st.finished[b]:
                    st.overhead_j[b] += instr * float(st.epi_j[b])

            # The boundary core's record changed; any core whose setting
            # changes needs fresh rates too.  Everyone else's (record,
            # setting) pair — hence rates — is untouched.  A decision
            # returning the very map applied last changes nothing by
            # construction — skip the per-core diff outright.
            if decision.settings is applied_settings:
                st.refresh_rates(b)
                continue
            applied_settings = decision.settings
            stale = {b}
            for i in range(n_cores):
                new_setting = decision.settings[i]
                if new_setting != st.settings[i]:
                    if self.charge_overheads:
                        cost = self.dvfs.transition_cost(st.settings[i], new_setting)
                        stall_s, energy_j = self.repartition.cost(
                            new_setting.ways - st.settings[i].ways,
                            self.system.memory.base_latency_s,
                            self.system.memory.access_energy_nj * 1e-9,
                        )
                        st.stall_s[i] += cost.time_s + stall_s
                        if not st.finished[i]:
                            st.overhead_j[i] += cost.energy_j + energy_j
                    st.settings[i] = new_setting
                    stale.add(i)
                    if history is not None:
                        history.append(SettingChange(t, i, new_setting))
            for i in stale:
                st.refresh_rates(i)
        else:
            raise RuntimeError("simulation exceeded max_events; check inputs")
        return (
            t,
            intervals_completed,
            qos_checks,
            violations,
            rm_invocations,
            rm_instructions,
        )

    # ------------------------------------------------------------------
    def _loop_wave(
        self,
        st: _CoreStates,
        horizon: float,
        baseline: Setting,
        max_events: int,
        history: Optional[List[SettingChange]],
    ) -> Tuple[float, int, int, List[float], int, float]:
        """The wave event loop (see module docstring).

        Sequencing is the scalar loop's — one boundary per event, scalar
        visit order — so every decision sees exactly the state it would
        have seen there; the differences are execution-strategy only:
        the compiled per-event step, the per-run interned boundary
        values, memoized rate refreshes and the identity-first settings
        diff.  Differentially tested bit-identical on full runs.
        """
        rm = self.rm
        db = self.db
        n_cores = st.n
        charge = self.charge_overheads
        cost_model = self.cost_model
        mem_latency_s = self.system.memory.base_latency_s
        mem_access_j = self.system.memory.access_energy_nj * 1e-9
        alpha = rm.system.qos_alpha
        # Hot-loop locals: the boundary pick is the arithmetic of
        # :func:`next_boundary` over preallocated scratch
        # (:meth:`_CoreStates.next_event`; float addition commutes, so
        # the pick is bit-equal; progress-state validation moves to the
        # loop entry + the rates memo, which revalidates every new
        # (record, setting) pair).  Per-core scalars go through the
        # arrays' memoryviews.
        if st.stall_s.min() < 0 or st.tpi_s.min() <= 0:
            raise ValueError("invalid progress state")
        v = st.scalars
        stall_s = v.stall_s
        instr_done = v.instr_done
        finished = v.finished
        interval_elapsed = v.interval_elapsed_s
        overhead_j = v.overhead_j
        records = st.records
        settings_list = st.settings
        intervals = st.intervals
        next_event = st.next_event
        observe = rm.observe
        #: Each core's records over one pass of its app's phase pattern:
        #: interval ``k`` runs ``cycle[k % len(cycle)]``, which is
        #: :meth:`SimDatabase.record_for_interval` (the pattern repeats).
        cycles = [
            [
                db.record_for_interval(app, k)
                for k in range(len(db.apps[app].phase_pattern))
            ]
            for app in st.apps
        ]
        #: Per-run interning of what recurs at every boundary.  Per
        #: (record, setting, next record), keyed by identity (records
        #: live in the db; each entry holds its setting, so the ids stay
        #: unique for the run): the model inputs, the record's baseline
        #: interval time and the next record's rates at the setting.  Per
        #: (local_evaluations, dp_operations) bill: its RM instructions.
        boundary_of: Dict[Tuple[int, int, int], tuple] = {}
        instructions_of: Dict[Tuple[int, int], float] = {}

        t = 0.0
        intervals_completed = 0
        qos_checks = 0
        violations: List[float] = []
        rm_invocations = 0
        rm_instructions = 0.0
        applied_settings: Optional[Dict[int, Setting]] = None

        for _ in range(max_events):
            if st.finished_all():
                break
            b, dt = next_event(horizon)
            t += dt

            elapsed = interval_elapsed[b]
            record = records[b]
            setting = settings_list[b]
            intervals[b] += 1
            cycle = cycles[b]
            next_record = cycle[intervals[b] % len(cycle)]
            key = (id(record), id(setting), id(next_record))
            entry = boundary_of.get(key)
            if entry is None:
                entry = boundary_of[key] = (
                    ModelInputs(
                        counters=record.counters_at(setting),
                        atd=record.atd_report(),
                        next_record=next_record,
                    ),
                    record.time_at(baseline),
                    next_record.rates_at(setting),
                    setting,
                )
            inputs, base_time, next_rates, _ = entry

            if not finished[b]:
                qos_checks += 1
                rel = (elapsed - base_time * alpha) / base_time
                if rel > _VIOLATION_EPS:
                    violations.append(rel)
            intervals_completed += 1

            instr_done[b] = 0.0
            interval_elapsed[b] = 0.0
            records[b] = next_record
            decision = observe(b, inputs)
            rm_invocations += 1

            if charge and (
                decision.local_evaluations or decision.dp_operations
            ):
                bill = (decision.local_evaluations, decision.dp_operations)
                instr = instructions_of.get(bill)
                if instr is None:
                    instr = cost_model.instructions(n_cores, *bill)
                    instructions_of[bill] = instr
                rm_instructions += instr
                stall_s[b] += cost_model.time_overhead_s(
                    instr, v.ipc[b], setting.f_ghz
                )
                if not finished[b]:
                    overhead_j[b] += instr * v.epi_j[b]

            if decision.settings is applied_settings:
                # Identity replay: by construction no setting moved, so
                # the whole diff — and every non-boundary rate refresh —
                # is skipped; only the boundary core's record changed,
                # and its rates at the kept setting are interned.
                st.refresh_rates_memo(b, next_rates)
                continue
            applied_settings = decision.settings
            changed = st.diff_settings(applied_settings)
            for i in changed:
                new_setting = applied_settings[i]
                if charge:
                    cost = self.dvfs.transition_cost(
                        settings_list[i], new_setting
                    )
                    stall_add_s, energy_j = self.repartition.cost(
                        new_setting.ways - settings_list[i].ways,
                        mem_latency_s,
                        mem_access_j,
                    )
                    stall_s[i] += cost.time_s + stall_add_s
                    if not finished[i]:
                        overhead_j[i] += cost.energy_j + energy_j
                settings_list[i] = new_setting
                if history is not None:
                    history.append(SettingChange(t, i, new_setting))
                if i != b:
                    st.refresh_rates_memo(i)
            st.refresh_rates_memo(b)
        else:
            raise RuntimeError("simulation exceeded max_events; check inputs")
        return (
            t,
            intervals_completed,
            qos_checks,
            violations,
            rm_invocations,
            rm_instructions,
        )
