"""QoS-violation statistics (Figs. 7 and 8 of the paper).

The study iterates over every phase of every application (weighted by the
SimPoint phase weights), every possible *current* setting of interval ``i``
and every possible *target* setting for interval ``i+1``, all with equal
probability, and flags a violation when

1. actually ``T_act(target) > T_act(base)``  — the target really is slower,
2. but the model predicted ``T_hat(target) <= T_hat(base)`` — the RM would
   have considered it QoS-safe (and could therefore select it).

Violation magnitudes follow Eq. 6.  :func:`_prediction_matrix` is a
vectorised mirror of Eq. 1 over the (current, target) pairs, verified
against the model classes in the test suite, and the reference the sweep
is tested against.

The sweep itself — hundreds of currents x hundreds of targets per phase,
for each of the three online models — visits only the targets that really
are slower than the baseline.  Per phase record it computes the
model-independent current-side statistics once and hoists Eq. 1's compute
term into a per-current table over the 3 x 10 (core size, frequency)
pairs; each model then costs one call of the compiled ``qos_sweep`` kernel
(:mod:`repro.core._native_opt`), one multiply, one add and one compare per
pair.  Without a compiler, or with ``REPRO_NO_NATIVE`` set, NumPy
gathers, adds and compares the same operands over the slower target
columns instead.  Both paths hand NumPy the violating pairs' magnitudes
in row-major order, so every sum and histogram is bit for bit the full
matrix's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.config import CORE_PARAMS, CoreSize, SystemConfig
from repro.core import _native_opt
from repro.database.builder import SimDatabase
from repro.database.records import PhaseRecord

__all__ = ["ViolationHistogram", "QoSStudyResult", "qos_violation_study"]

_RTOL = 1e-9

#: The online models the study scores, swept together.
_MODELS = ("Model1", "Model2", "Model3")

#: Issue width per core size, S..L.
_WIDTHS = np.array([CORE_PARAMS[c].issue_width for c in CoreSize.all()], dtype=float)


@dataclass(frozen=True)
class ViolationHistogram:
    """Weighted histogram of violation magnitudes (Fig. 8)."""

    bin_edges: np.ndarray
    counts: np.ndarray

    def normalised_to(self, peak: float) -> np.ndarray:
        """Counts scaled so the maximum across models maps to 1 (Fig. 8's
        y-axis is normalised to the max violation count across models)."""
        if peak <= 0:
            raise ValueError("peak must be positive")
        return self.counts / peak


@dataclass(frozen=True)
class QoSStudyResult:
    """Violation statistics for one performance model."""

    model_name: str
    probability: float
    expected_value: float
    std: float
    histogram: ViolationHistogram
    weighted_cases: float
    weighted_violations: float


def _grid_axes(system: SystemConfig) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    sizes = np.array([int(c) for c in CoreSize.all()])
    freqs = np.array(system.candidate_frequencies())
    ways = np.array(system.candidate_ways())
    return sizes, freqs, ways


def _flatten_settings(
    system: SystemConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All candidate settings as flat index arrays (c, f-index, w)."""
    sizes, freqs, ways = _grid_axes(system)
    c, f, w = np.meshgrid(sizes, np.arange(freqs.size), ways, indexing="ij")
    return c.ravel(), f.ravel(), w.ravel()


class _Grid(NamedTuple):
    """One system's flat setting grid, its nominal latency and baseline."""

    cc: np.ndarray  # core size of each flat setting
    ff: np.ndarray  # frequency index
    wi: np.ndarray  # way index (ways - 1)
    f_hz: np.ndarray  # candidate frequencies, Hz
    lat: float  # nominal memory latency, s
    cb: int  # baseline core size, frequency index and way index
    fb: int
    wb: int


def _grid(system: SystemConfig) -> _Grid:
    """The flat setting grid and baseline of ``system``."""
    cc, ff, ww = _flatten_settings(system)
    base = system.baseline_setting()
    return _Grid(
        cc, ff, ww - 1, np.array(system.candidate_frequencies()) * 1e9,
        system.memory.base_latency_s,
        int(base.core), system.dvfs.index_of(base.f_ghz), base.ways - 1,
    )


class _Current(NamedTuple):
    """Eq. 1's model-independent statistics, one entry per current setting."""

    t0: np.ndarray
    t1: np.ndarray
    d_cur: np.ndarray
    lat_eff: np.ndarray
    mlp_cur: np.ndarray


def _current_side(record: PhaseRecord, g: _Grid) -> _Current:
    """The counters' view of the past interval at every current setting.

    ``lat_eff`` is the measured per-leading-miss latency of that interval
    (see ``IntervalCounters.effective_memory_latency_s``); it falls back
    to the nominal latency when the interval had no leading misses.
    """
    f_hz = g.f_hz[g.ff]
    t_act = record.time_grid[g.cc, g.ff, g.wi]
    t1 = (
        record.branch_cycles
        + record.cache_stall_curve[g.wi]
        + record.dep_stall_cycles[g.cc]
    )
    tmem_cur = record.mem_time_grid[g.cc, g.wi]
    t0 = np.clip(t_act * f_hz - t1 - tmem_cur * f_hz, 0.0, None)
    misses_cur = record.miss_curve[g.wi]
    lm_cur = record.lm_true[g.cc, g.wi]
    mlp_cur = np.where(lm_cur > 0, np.maximum(misses_cur / np.maximum(lm_cur, 1e-12), 1.0), 1.0)
    lat_eff = np.where(
        (lm_cur > 0) & (tmem_cur > 0), tmem_cur / np.maximum(lm_cur, 1e-12), g.lat
    )
    return _Current(t0, t1, _WIDTHS[g.cc], lat_eff, mlp_cur)


def _memory_factors(
    record: PhaseRecord, g: _Grid, model_name: str, targets: np.ndarray, cur: _Current
) -> Tuple[np.ndarray, np.ndarray]:
    """Eq. 1's memory term as ``u[target] * v[current]``.

    The three models differ only here:

    * Model1: ``misses_ATD(w_tgt) * L_nominal`` (``v = 1``, which is exact)
    * Model2: ``misses_ATD(w_tgt) * L_eff(current) / MLP(current)``
    * Model3: ``LM_heur(c_tgt, w_tgt) * L_eff(current)``
    """
    wi = g.wi[targets]
    if model_name == "Model1":
        return record.atd_miss_curve[wi] * g.lat, np.ones(cur.lat_eff.size)
    if model_name == "Model2":
        return record.atd_miss_curve[wi], cur.lat_eff / cur.mlp_cur
    if model_name == "Model3":
        return record.lm_heur[g.cc[targets], wi], cur.lat_eff
    raise ValueError(f"unknown model {model_name!r}")


def _predicted_base(
    record: PhaseRecord, g: _Grid, model_name: str, cur: _Current
) -> np.ndarray:
    """The predicted baseline time of every current setting."""
    base_compute = (cur.t0 * (cur.d_cur / _WIDTHS[g.cb]) + cur.t1) / g.f_hz[g.fb]
    if model_name == "Model1":
        base_mem = np.full(cur.t0.size, record.atd_miss_curve[g.wb] * g.lat)
    elif model_name == "Model2":
        base_mem = record.atd_miss_curve[g.wb] * cur.lat_eff / cur.mlp_cur
    else:
        base_mem = record.lm_heur[g.cb, g.wb] * cur.lat_eff
    return base_compute + base_mem


def _prediction_matrix(
    record: PhaseRecord,
    system: SystemConfig,
    model_name: str,
    targets: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(predictions[cur, tgt], predicted_base[cur]) for one phase record.

    Vectorised Eq. 1 over all (current, target) pairs, or only over the flat
    target settings ``targets``: entries are elementwise, so a restricted
    matrix is the full one's columns bit for bit.  The reference the sweep
    is tested against.
    """
    g = _grid(system)
    tgt = np.arange(g.cc.size) if targets is None else targets
    cur = _current_side(record, g)
    u, v = _memory_factors(record, g, model_name, tgt, cur)
    compute_cycles = (
        cur.t0[:, None] * (cur.d_cur[:, None] / _WIDTHS[g.cc[tgt]]) + cur.t1[:, None]
    )
    pred = compute_cycles / g.f_hz[g.ff[tgt]][None, :] + u[None, :] * v[:, None]
    return pred, _predicted_base(record, g, model_name, cur)


@dataclass
class _Sweep:
    """The bin-independent part of one model's sweep.

    ``records`` holds per violating record its pair weight, the
    magnitudes of the violated targets and how many currents violate
    each.
    """

    weighted_cases: float = 0.0
    weighted_violations: float = 0.0
    sum_mag: float = 0.0
    sum_mag2: float = 0.0
    records: List[Tuple[float, np.ndarray, np.ndarray]] = field(default_factory=list)

    def add(
        self,
        weight: float,
        pair_w: float,
        target_mags: np.ndarray,
        counts: np.ndarray,
        mags: np.ndarray,
    ) -> None:
        """Fold in one record: per-target counts, row-major magnitudes."""
        self.weighted_cases += weight
        n_viol = int(counts.sum())
        if n_viol:
            # Row-major, as over the full matrix: same order, same sums.
            self.weighted_violations += pair_w * n_viol
            self.sum_mag += pair_w * float(mags.sum())
            self.sum_mag2 += pair_w * float((mags**2).sum())
            hit = counts > 0
            self.records.append((pair_w, target_mags[hit], counts[hit]))


def _violations(
    rec: PhaseRecord, g: _Grid, cur: _Current, slower: np.ndarray, target_mags: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Each model's ``(counts, mags)`` over the slower targets.

    Eq. 1's compute term per (current, core size, frequency) is tabled
    once for all three models.  Pair ``(k, j)`` violates when
    ``comp[k, cf[j]] + u[j] * v[k] <= thr[k]``: the full matrix's
    operands in its order of operations, so the same bits.  Each model
    costs one ``qos_sweep`` call, or without it the same gather, add and
    compare in NumPy.
    """
    cycles = cur.t0[:, None] * (cur.d_cur[:, None] / _WIDTHS) + cur.t1[:, None]
    comp = (cycles[:, :, None] / g.f_hz).reshape(cycles.shape[0], -1)
    cf = g.cc[slower] * g.f_hz.size + g.ff[slower]
    native = _native_opt.available()
    for model in _MODELS:
        u, v = _memory_factors(rec, g, model, slower, cur)
        thr = _predicted_base(rec, g, model, cur) * (1.0 + _RTOL)
        if native:
            yield _native_opt.qos_sweep(comp, cf, u, v, thr, target_mags)
        else:
            viol = comp[:, cf] + u[None, :] * v[:, None] <= thr[:, None]
            mags = np.broadcast_to(target_mags, viol.shape)[viol]
            yield np.count_nonzero(viol, axis=0), mags


def _violation_sweep(db: SimDatabase, model_name: str, names: Sequence[str]) -> _Sweep:
    """One model's sweep, kept on ``db``.

    Figs. 7 and 8 differ only in their histogram bins, so they share one
    sweep per model; one pass over the records sweeps all three models.
    """
    sweeps = db.__dict__.setdefault("_qos_sweeps", {})
    key = (model_name, tuple(names))
    if key in sweeps:
        return sweeps[key]
    g = _grid(db.system)
    app_w = 1.0 / len(names)
    per_model = [_Sweep() for _ in _MODELS]

    for name in names:
        spec = db.apps[name]
        weights = spec.phase_weights()
        for rec, phase_w in zip(db.records[name], weights):
            weight = app_w * phase_w
            t_act = rec.time_grid[g.cc, g.ff, g.wi]  # per target (same flat grid)
            t_act_base = float(rec.time_grid[g.cb, g.fb, g.wb])
            # Only targets that really are slower can hold a violation.
            slower = np.flatnonzero(t_act > t_act_base * (1.0 + 1e-9))
            target_mags = (t_act[slower] - t_act_base) / t_act_base
            pair_w = weight / g.cc.size**2  # every (current, target) pair
            cur = _current_side(rec, g)
            found = _violations(rec, g, cur, slower, target_mags)
            for sweep, (counts, mags) in zip(per_model, found):
                sweep.add(weight, pair_w, target_mags, counts, mags)

    for model, sweep in zip(_MODELS, per_model):
        sweeps[(model, tuple(names))] = sweep
    return sweeps[key]


def qos_violation_study(
    db: SimDatabase,
    model_name: str,
    bins: Optional[Sequence[float]] = None,
    apps: Optional[Sequence[str]] = None,
) -> QoSStudyResult:
    """Run the full Section IV-D2 sweep for one model.

    Parameters
    ----------
    db:
        Simulation database.
    model_name:
        "Model1", "Model2" or "Model3".
    bins:
        Violation-magnitude histogram edges (defaults to 2.5% steps up to
        50%).
    apps:
        Restrict to a subset of applications (defaults to all).
    """
    if model_name not in _MODELS:
        raise ValueError(f"unknown model {model_name!r}")
    names = list(apps) if apps is not None else db.app_names()
    if not names:
        raise ValueError("apps must name at least one application")
    unknown = [n for n in names if n not in db.apps or n not in db.records]
    if unknown:
        raise ValueError(f"unknown applications {unknown!r}")
    if bins is None:
        bins = np.arange(0.0, 0.525, 0.025)
    edges = np.asarray(bins, dtype=float)
    sweep = _violation_sweep(db, model_name, names)
    hist = np.zeros(edges.size - 1)
    for pair_w, mags, counts in sweep.records:
        # Integer weights: the exact counts of the violating magnitudes.
        h, _ = np.histogram(mags, bins=edges, weights=counts)
        hist += h * pair_w

    cases, violations = sweep.weighted_cases, sweep.weighted_violations
    probability = violations / cases if cases else 0.0
    if violations > 0:
        ev = sweep.sum_mag / violations
        var = max(sweep.sum_mag2 / violations - ev * ev, 0.0)
        std = float(np.sqrt(var))
    else:
        ev, std = 0.0, 0.0
    return QoSStudyResult(
        model_name=model_name,
        probability=float(probability),
        expected_value=float(ev),
        std=std,
        histogram=ViolationHistogram(bin_edges=edges, counts=hist),
        weighted_cases=cases,
        weighted_violations=violations,
    )
