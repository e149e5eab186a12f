"""QoS-violation statistics (Figs. 7 and 8 of the paper).

The study iterates over every phase of every application (weighted by the
SimPoint phase weights), every possible *current* setting of interval ``i``
and every possible *target* setting for interval ``i+1``, all with equal
probability, and flags a violation when

1. actually ``T_act(target) > T_act(base)``  — the target really is slower,
2. but the model predicted ``T_hat(target) <= T_hat(base)`` — the RM would
   have considered it QoS-safe (and could therefore select it).

Violation magnitudes follow Eq. 6.  The per-(current, target) prediction
matrix is evaluated with a vectorised mirror of Eq. 1 (verified against the
model classes in the test suite) so the full sweep — hundreds of currents x
hundreds of targets per phase — stays fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import CORE_PARAMS, CoreSize, SystemConfig
from repro.database.builder import SimDatabase
from repro.database.records import PhaseRecord

__all__ = ["ViolationHistogram", "QoSStudyResult", "qos_violation_study"]

_RTOL = 1e-9


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


def _prediction_matrix(
    record: PhaseRecord,
    system: SystemConfig,
    model_name: str,
    targets: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """(predictions[cur, tgt], predicted_base[cur]) for one phase record.

    Vectorised Eq. 1 over all (current, target) pairs, or only over the flat
    target settings ``targets``: entries are elementwise, so a restricted
    matrix is the full one's columns bit for bit.  The three models differ
    only in the memory term:

    * Model1: ``misses_ATD(w_tgt) * L_nominal``
    * Model2: ``misses_ATD(w_tgt) * L_eff(current) / MLP(current)``
    * Model3: ``LM_heur(c_tgt, w_tgt) * L_eff(current)``

    where ``L_eff(current)`` is the measured per-leading-miss latency of the
    past interval (see ``IntervalCounters.effective_memory_latency_s``).
    """
    freqs = np.array(system.candidate_frequencies())
    widths = np.array([CORE_PARAMS[c].issue_width for c in CoreSize.all()], dtype=float)
    lat = system.memory.base_latency_s
    cc, ff, ww = _flatten_settings(system)
    n_settings = cc.size
    wi = ww - 1
    tgt = slice(None) if targets is None else targets

    # --- current-side statistics (vector over settings) -----------------
    f_hz = freqs[ff] * 1e9
    t_act = record.time_grid[cc, ff, wi]
    t1 = (
        record.branch_cycles
        + record.cache_stall_curve[wi]
        + record.dep_stall_cycles[cc]
    )
    tmem_cur = record.mem_time_grid[cc, wi]
    t0 = np.clip(t_act * f_hz - t1 - tmem_cur * f_hz, 0.0, None)
    d_cur = widths[cc]
    misses_cur = record.miss_curve[wi]
    lm_cur = record.lm_true[cc, wi]
    mlp_cur = np.where(lm_cur > 0, np.maximum(misses_cur / np.maximum(lm_cur, 1e-12), 1.0), 1.0)
    lat_eff = np.where(
        (lm_cur > 0) & (tmem_cur > 0), tmem_cur / np.maximum(lm_cur, 1e-12), lat
    )

    # --- target-side memory term ----------------------------------------
    if model_name == "Model1":
        mem_tgt = record.atd_miss_curve[wi[tgt]] * lat  # (n_targets,)
        mem_matrix = np.broadcast_to(mem_tgt, (n_settings, mem_tgt.size))
    elif model_name == "Model2":
        base = record.atd_miss_curve[wi[tgt]]
        mem_matrix = base[None, :] * (lat_eff / mlp_cur)[:, None]
    elif model_name == "Model3":
        mem_tgt = record.lm_heur[cc[tgt], wi[tgt]]
        mem_matrix = mem_tgt[None, :] * lat_eff[:, None]
    else:
        raise ValueError(f"unknown model {model_name!r}")

    compute_cycles = t0[:, None] * (d_cur[:, None] / widths[cc[tgt]]) + t1[:, None]
    pred = compute_cycles / (freqs[ff[tgt]] * 1e9)[None, :] + mem_matrix

    # --- predicted baseline (per current) --------------------------------
    base_setting = system.baseline_setting()
    cb = int(base_setting.core)
    fb = system.dvfs.index_of(base_setting.f_ghz)
    wb = base_setting.ways - 1
    base_compute = (t0 * (d_cur / widths[cb]) + t1) / (freqs[fb] * 1e9)
    if model_name == "Model1":
        base_mem = np.full(n_settings, record.atd_miss_curve[wb] * lat)
    elif model_name == "Model2":
        base_mem = record.atd_miss_curve[wb] * lat_eff / mlp_cur
    else:
        base_mem = record.lm_heur[cb, wb] * lat_eff
    pred_base = base_compute + base_mem
    return pred, pred_base


def _violation_sweep(db: SimDatabase, model_name: str, names: Sequence[str]):
    """The bin-independent part of one model's sweep, kept on ``db``.

    Returns ``(weighted_cases, weighted_violations, sum_mag, sum_mag2,
    records)``, where ``records`` holds per violating record its pair
    weight, the magnitudes of the violated targets and how many currents
    violate each.  Figs. 7 and 8 differ only in their histogram bins, so
    they share one sweep per model.
    """
    sweeps = db.__dict__.setdefault("_qos_sweeps", {})
    key = (model_name, tuple(names))
    if key in sweeps:
        return sweeps[key]
    system = db.system
    cc, ff, ww = _flatten_settings(system)
    wi = ww - 1
    base_setting = system.baseline_setting()
    cb = int(base_setting.core)
    fb = system.dvfs.index_of(base_setting.f_ghz)
    wb = base_setting.ways - 1
    app_w = 1.0 / len(names)

    weighted_cases = 0.0
    weighted_violations = 0.0
    sum_mag = 0.0
    sum_mag2 = 0.0
    records = []

    for name in names:
        spec = db.apps[name]
        weights = spec.phase_weights()
        for rec, phase_w in zip(db.records[name], weights):
            weight = app_w * phase_w
            t_act = rec.time_grid[cc, ff, wi]  # per target (same flat grid)
            t_act_base = float(rec.time_grid[cb, fb, wb])
            # Only targets that really are slower can hold a violation.
            slower = np.flatnonzero(t_act > t_act_base * (1.0 + 1e-9))
            pred, pred_base = _prediction_matrix(rec, system, model_name, slower)
            viol = pred <= pred_base[:, None] * (1.0 + _RTOL)

            pair_w = weight / cc.size**2  # every (current, target) pair
            weighted_cases += weight
            counts = np.count_nonzero(viol, axis=0)  # per target
            n_viol = int(counts.sum())
            if n_viol:
                # Row-major, as over the full matrix: same order, same sums.
                target_mags = (t_act[slower] - t_act_base) / t_act_base
                mags = np.broadcast_to(target_mags, viol.shape)[viol]
                weighted_violations += pair_w * n_viol
                sum_mag += pair_w * float(mags.sum())
                sum_mag2 += pair_w * float((mags**2).sum())
                hit = counts > 0
                records.append((pair_w, target_mags[hit], counts[hit]))

    sweep = (weighted_cases, weighted_violations, sum_mag, sum_mag2, records)
    sweeps[key] = sweep
    return sweep


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
    if bins is None:
        bins = np.arange(0.0, 0.525, 0.025)
    edges = np.asarray(bins, dtype=float)
    names = list(apps) if apps is not None else db.app_names()
    weighted_cases, weighted_violations, sum_mag, sum_mag2, records = (
        _violation_sweep(db, model_name, names)
    )
    hist = np.zeros(edges.size - 1)
    for pair_w, mags, counts in records:
        # Integer weights: the exact counts of the violating magnitudes.
        h, _ = np.histogram(mags, bins=edges, weights=counts)
        hist += h * pair_w

    probability = weighted_violations / weighted_cases if weighted_cases else 0.0
    if weighted_violations > 0:
        ev = sum_mag / weighted_violations
        var = max(sum_mag2 / weighted_violations - ev * ev, 0.0)
        std = float(np.sqrt(var))
    else:
        ev, std = 0.0, 0.0
    return QoSStudyResult(
        model_name=model_name,
        probability=float(probability),
        expected_value=float(ev),
        std=std,
        histogram=ViolationHistogram(bin_edges=edges, counts=hist),
        weighted_cases=weighted_cases,
        weighted_violations=weighted_violations,
    )
