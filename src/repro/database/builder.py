"""Database construction: trace synthesis -> models -> grids.

For every (application, phase) the builder

1. synthesises the representative trace,
2. measures the ground-truth miss curve and oracle leading-miss matrix,
3. replays the trace through the per-core ATD (arrival order) to obtain the
   *measured* miss curve and the Fig. 4 heuristic leading-miss matrix,
4. evaluates the mechanistic interval model and the power model over the
   full (c, f, w) grid,

yielding one :class:`~repro.database.records.PhaseRecord`.  Results are
deterministic in (suite, system, seed) and can be cached on disk
(:mod:`repro.database.store`).

Phase records are mutually independent and each carries its own derived
seed, so :func:`build_database` can fan the per-phase work out over a
``concurrent.futures`` process pool: the database is bit-identical for any
worker count, including serial.  Worker count resolves from the explicit
``n_workers`` argument, then ``REPRO_BUILD_WORKERS``, then an automatic
rule that only engages the pool for builds big enough to amortise
process startup (paper-scale suites, not test minis).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.atd.atd import AuxiliaryTagDirectory
from repro.cache.hierarchy import PrivateHierarchyModel
from repro.config import CORE_PARAMS, CoreSize, SystemConfig
from repro.database.records import PhaseRecord
from repro.microarch.interval_model import IntervalModel
from repro.microarch.leading import leading_miss_matrix
from repro.power.model import PowerModel
from repro.trace.generator import PhaseTraceGenerator
from repro.trace.spec import AppSpec, PhaseSpec
from repro.util.rng import derive_seed

__all__ = [
    "SimDatabase",
    "build_database",
    "build_phase_record",
    "resolve_build_workers",
]

#: Auto mode engages the pool only above this much total replay work
#: (tasks x sampled accesses); smaller builds run serial, faster.
_AUTO_POOL_MIN_WORK = 8 * 8192


@dataclass
class SimDatabase:
    """All phase records for a suite under one system configuration."""

    system: SystemConfig
    apps: Dict[str, AppSpec]
    records: Dict[str, List[PhaseRecord]] = field(default_factory=dict)

    def record(self, app: str, phase_index: int) -> PhaseRecord:
        return self.records[app][phase_index]

    def record_for_interval(self, app: str, interval: int) -> PhaseRecord:
        """Record for the phase an app executes in a given interval."""
        spec = self.apps[app]
        return self.records[app][spec.phase_of_interval(interval)]

    def app_names(self) -> List[str]:
        return sorted(self.records)

    def iter_phase_records(self):
        """Yield ``(app_spec, phase_index, weight, record)`` over the suite.

        Weights are the SimPoint-style phase weights of each application.
        """
        for name in self.app_names():
            spec = self.apps[name]
            weights = spec.phase_weights()
            for idx, record in enumerate(self.records[name]):
                yield spec, idx, weights[idx], record


def build_phase_record(
    spec: PhaseSpec,
    app_name: str,
    system: SystemConfig,
    seed: int,
    generator: PhaseTraceGenerator | None = None,
    hierarchy: PrivateHierarchyModel | None = None,
) -> PhaseRecord:
    """Build one database entry (see module docstring for the steps)."""
    gen = generator or PhaseTraceGenerator(system.scale)
    hier = hierarchy or PrivateHierarchyModel()
    trace = gen.generate(spec, seed)
    stream = trace.stream
    scale = trace.sample_scale

    n_instr = float(system.scale.interval_instructions)
    rob_sizes = [CORE_PARAMS[c].rob for c in CoreSize.all()]
    max_ways = system.cache.w_max

    # --- ground truth ---------------------------------------------------
    miss_curve = trace.nominal_miss_curve(max_ways)
    lm_true = leading_miss_matrix(stream, rob_sizes, max_ways) * scale
    cache_stall = hier.cache_stall_curve(trace, max_ways)
    branch_cycles = n_instr * spec.branch_mpki / 1000.0 * spec.branch_penalty_cycles
    ipc = np.array([spec.ipc[c] for c in CoreSize.all()], dtype=float)
    widths = np.array([CORE_PARAMS[c].issue_width for c in CoreSize.all()], dtype=float)
    dep_stall = n_instr / ipc - n_instr / widths  # >= 0 by spec validation
    accesses = trace.nominal_accesses

    # --- the ATD's (online) view ----------------------------------------
    atd = AuxiliaryTagDirectory(
        n_sets=gen.n_sets,
        max_ways=max_ways,
        set_sample=system.cache.atd_sample,
    )
    report = atd.process(stream, scale=scale)

    # --- time grids ------------------------------------------------------
    freqs = np.array(system.candidate_frequencies())
    model = IntervalModel(system)
    time_grid = model.time_grid(
        n_instructions=n_instr,
        ipc_by_size=ipc,
        branch_cycles=branch_cycles,
        cache_stall_curve=cache_stall,
        lm_matrix=lm_true,
        miss_curve=miss_curve,
        frequencies_ghz=freqs,
    )
    # Memory stall time is frequency-invariant: recover it at the baseline
    # frequency column (identical across columns by construction).
    f_base_idx = int(np.argmin(np.abs(freqs - system.dvfs.f_base_ghz)))
    compute_cycles = (
        n_instr / ipc[:, None] + branch_cycles + cache_stall[None, :]
    )
    mem_time_grid = time_grid[:, f_base_idx, :] - compute_cycles / (
        freqs[f_base_idx] * 1e9
    )
    mem_time_grid = np.clip(mem_time_grid, 0.0, None)

    # --- energy grids ----------------------------------------------------
    power = PowerModel(system.power, system.dvfs, system.memory)
    volts = np.array([system.dvfs.voltage(f) for f in freqs])
    core_dyn = np.empty((len(CoreSize.all()), freqs.size))
    core_static = np.empty_like(core_dyn)
    for c in CoreSize.all():
        for fi, _f in enumerate(freqs):
            core_dyn[int(c), fi] = (
                power.dynamic_energy_per_instruction_j(c, volts[fi]) * n_instr
            )
            core_static[int(c), fi] = power.static_power_w(c, volts[fi])
    mem_energy = (
        miss_curve * power.dram_access_energy_j()
        + accesses * power.llc_access_energy_j()
    )

    record = PhaseRecord(
        app=app_name,
        phase=spec.name,
        n_instructions=n_instr,
        ipc_by_size=ipc,
        dep_stall_cycles=dep_stall,
        branch_cycles=branch_cycles,
        cache_stall_curve=cache_stall,
        miss_curve=miss_curve,
        lm_true=lm_true.astype(float),
        atd_miss_curve=report.miss_curve,
        lm_heur=report.mlp.leading_misses,
        llc_accesses=accesses,
        time_grid=time_grid,
        mem_time_grid=mem_time_grid,
        core_dyn_grid=core_dyn,
        core_static_power_grid=core_static,
        mem_energy_curve=mem_energy,
        frequencies_ghz=freqs,
    )
    record.shape_check()
    return record


def resolve_build_workers(
    n_workers: Optional[int], n_tasks: int, system: SystemConfig
) -> int:
    """Worker count for a build of ``n_tasks`` phase records.

    Priority: explicit argument, then ``REPRO_BUILD_WORKERS``, then an
    automatic rule — parallelise only when the total replay work is large
    enough for the pool startup to pay for itself.
    """
    if n_workers is None:
        n_workers = settings.current().build_workers
    if n_workers is None:
        work = n_tasks * system.scale.sample_llc_accesses
        if n_tasks >= 4 and work >= _AUTO_POOL_MIN_WORK:
            n_workers = min(os.cpu_count() or 1, n_tasks, 8)
        else:
            n_workers = 1
    return max(1, min(int(n_workers), max(1, n_tasks)))


def _build_phase_task(
    args: Tuple[PhaseSpec, str, SystemConfig, int, PhaseTraceGenerator],
) -> PhaseRecord:
    """Pool-friendly wrapper: one fully described, independent record."""
    phase, app_name, system, phase_seed, gen = args
    return build_phase_record(phase, app_name, system, phase_seed, gen)


def build_database(
    suite: Sequence[AppSpec],
    system: SystemConfig,
    seed: int = 2020,
    generator: PhaseTraceGenerator | None = None,
    use_cache: bool = True,
    n_workers: Optional[int] = None,
) -> SimDatabase:
    """Build (or load from cache) the database for a suite.

    The cache key covers the suite specs, the seed and every system field
    but ``n_cores`` (which no record reads), so stale results can never be
    returned for changed inputs, and every core count shares one file.

    Each (application, phase) record derives its seed from the path
    ``(seed, "trace", app, phase_index)`` alone, so the build is
    deterministic — and bit-identical — for every ``n_workers`` value (see
    :func:`resolve_build_workers` for how the count is chosen).
    """
    from repro.database.store import load_cached_database, save_database_cache

    apps = {spec.name: spec for spec in suite}
    if len(apps) != len(suite):
        raise ValueError("application names must be unique")

    if use_cache:
        cached = load_cached_database(suite, system, seed)
        if cached is not None:
            return cached

    gen = generator or PhaseTraceGenerator(system.scale)
    tasks = [
        (phase, spec.name, system, derive_seed(seed, "trace", spec.name, idx), gen)
        for spec in suite
        for idx, phase in enumerate(spec.phases)
    ]
    workers = resolve_build_workers(n_workers, len(tasks), system)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            built = list(pool.map(_build_phase_task, tasks, chunksize=1))
    else:
        built = [_build_phase_task(t) for t in tasks]

    db = SimDatabase(system=system, apps=apps)
    cursor = 0
    for spec in suite:
        n_phases = len(spec.phases)
        db.records[spec.name] = built[cursor : cursor + n_phases]
        cursor += n_phases

    if use_cache:
        save_database_cache(db, suite, seed)
    return db


def baseline_feasibility_check(db: SimDatabase) -> None:
    """Assert the paper's premise: the baseline setting exists in-grid.

    The baseline (M core, 2 GHz, even split) must be a valid grid point for
    every record; raises otherwise.
    """
    base = db.system.baseline_setting()
    for _spec, _idx, _w, record in db.iter_phase_records():
        record.time_at(base)  # raises if off-grid
