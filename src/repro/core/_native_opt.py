"""Optional compiled kernels: the reduction tree's combines, the
simulator's per-event step and the QoS-violation sweep.

Three hot loops cross into C here, one :mod:`ctypes` call each:

* ``tree_update`` — the decision kernel.  Every leaf-to-root recombine
  pays one windowed ``la * lb`` (min,+) convolution per level, and at 64
  cores the upper operands are hundreds of points wide.  One call
  recombines a changed leaf's whole path and then evaluates the root
  split at the way budget, reading and writing a per-tree node table
  (energy buffer, low way count, width per node) so no Python runs per
  level.  The tree's construction runs the same kernel over every
  internal node.
* ``wave_event`` — the simulator.  One call per wave-loop event computes
  every core's time to its boundary, picks the next boundary and
  advances every core to it.  Its one argument is a slot table built
  once per state container: a pointer per per-core array, then the
  horizon and core count in and the step ``dt`` out.
* ``qos_sweep`` — the Figs. 7-8 QoS-violation study.  One call scores
  every (current, slower target) setting pair of one phase record under
  one model: a per-current table of Eq. 1's compute term, hoisted out of
  the pair loop, plus the model's memory term ``u[target] * v[current]``,
  compared with the current's predicted baseline.  It writes the
  per-target violation counts and every violating pair's magnitude in
  row-major order; :mod:`repro.analysis.stats` sums them in NumPy.

All three are built on demand with the system C compiler and loaded through
:mod:`ctypes` by :func:`repro.util.nativebuild.load_kernels`, the loader
the replay engine's :mod:`repro.cache._native` shares.

Bit-identity is structural.  Each combine cell is the single addition
``a[ia] + b[w - ia]`` (no fusion or reassociation is possible) and a
column's value is its first minimum in ascending ``ia``, the sign of a
zero included — the value the NumPy combine's argmin selects (a NaN sum
never wins here; :class:`~repro.core.energy_curve.EnergyCurve` rejects
NaN, so energy curves hold none).  The row blocks change only
which columns a pass visits, never a column's order of compares.  The
root split keeps the first minimum, and the first NaN if any, exactly as
:func:`numpy.argmin`; the boundary pick keeps the first minimum, as the
scalar loop's :func:`~repro.simulator.events.next_boundary` does.  While
no active core reaches the horizon, the advance performs
:func:`~repro.simulator.rmsim.advance_cores_reference`'s per-core
operations in the same order, unmasked (finished cores carry zeroed
energy rates); it hands every other event back to that reference.  The
sweep's prediction is NumPy's one multiply and one add;
``-ffp-contract=off`` keeps the compiler from fusing any of them.  The
differential tests assert equality against the scalar loop's step (the
event kernel) and the NumPy paths (the tree and the sweep), which are
themselves pinned to the scalar references.

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE`` set true (:mod:`repro.settings`) make
:func:`available` return ``False``; the tree then combines and evaluates
through NumPy, the wave loop runs the scalar loop's step (its oracle, as
replay runs its ``LRUStack`` oracle), and the QoS study gathers, adds
and compares the same operands in NumPy.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Tuple

import numpy as np

from repro.util.nativebuild import load_kernels

__all__ = [
    "COMBINE_ROWS", "EVENT_SLOTS", "NODE_FIELDS", "SCRATCH_PAD", "available",
    "qos_sweep", "raw_lib",
]

#: Int64 fields per reduction-tree node in ``tree_update``'s node table:
#: energy buffer address, lowest way count, width.
NODE_FIELDS = 3

#: Left-operand rows per block of ``tree_update``'s combine.  The
#: kernel stages the right operand between ``COMBINE_ROWS - 1`` +inf
#: entries on each side, so its scratch holds the widest operand plus
#: :data:`SCRATCH_PAD` doubles.
COMBINE_ROWS = 8
SCRATCH_PAD = 2 * (COMBINE_ROWS - 1)

#: Pointer slots of ``wave_event``'s state table, in table order (the
#: simulator's ``_CoreStates`` attribute names).  Three 8-byte scalar
#: slots follow them: the horizon (double) and core count (int64) the
#: caller writes, and the step ``dt`` (double) the kernel writes.
EVENT_SLOTS = (
    "stall_s",
    "tpi_s",
    "instr_done",
    "total_instr",
    "interval_elapsed_s",
    "n_instructions",
    "epi_j",
    "work_j_per_inst",
    "static_w",
    "_active",
    "core_dynamic_j",
    "core_static_j",
    "memory_j",
    "_dinstr",
    "_remaining",
    "_dts",
)

_SOURCE = f"#define ROWS {COMBINE_ROWS}\n" + r"""
#include <stdint.h>
#include <math.h>

/* ---- decision kernel ------------------------------------------------
 *
 * Node table: three int64 per tree node (N_ADDR, N_LO, N_LEN) — the
 * address of its energy buffer, its lowest way count and its width.  A
 * leaf's triple is its curve's (the caller rewrites it on install); an
 * internal node owns a fixed buffer sized for its budget window and the
 * kernel rewrites its low end and width whenever it recombines it. */
enum { N_ADDR, N_LO, N_LEN, N_FIELDS };

/* Output columns [lo, hi] (absolute way counts) of the (min,+) band of
 * one node's two children, VALUES ONLY (back-tracks recover a visited
 * column's choice lazily).  Column w is the minimum of the single-add
 * sums a[ia] + b[w - ia] over its band, compared in ascending ia with
 * `v < best` from +inf: a scalar loop over those sums in that order is
 * the spec, ties (+-0 included) keep the first and NaN never wins.
 *
 * The left operand is taken ROWS entries at a time.  Each block loads
 * its rows into registers and sweeps the run of columns they reach,
 * updating each column once from a fixed-trip row loop; consecutive
 * columns are independent, so the sweep vectorises across them.  The
 * right operand is staged once in scratch with ROWS - 1 +inf entries on
 * both sides (pad[ROWS - 1 + j] == b[j]), and rows past the window's
 * last row read +inf, so every off-band term is +inf or NaN and never
 * passes `<`: each column still sees exactly its band, in order. */
static void combine_window(const int64_t* left, const int64_t* right,
                           int64_t lo, int64_t hi, double* restrict out,
                           double* restrict pad)
{
    const double* a = (const double*)(intptr_t)left[N_ADDR];
    const double* b = (const double*)(intptr_t)right[N_ADDR];
    int64_t la = left[N_LEN], lb = right[N_LEN];
    int64_t base = left[N_LO] + right[N_LO];
    int64_t w0 = lo - base, w1 = hi - base;
    for (int64_t j = 0; j < ROWS - 1; j++)
        pad[j] = pad[lb + ROWS - 1 + j] = INFINITY;
    for (int64_t j = 0; j < lb; j++) pad[ROWS - 1 + j] = b[j];
    for (int64_t w = w0; w <= w1; w++) out[w - w0] = INFINITY;
    int64_t first = w0 - (lb - 1) > 0 ? w0 - (lb - 1) : 0;
    int64_t last = w1 < la - 1 ? w1 : la - 1;
    for (int64_t ia = first; ia <= last; ia += ROWS) {
        double rows[ROWS];
        for (int r = 0; r < ROWS; r++)
            rows[r] = ia + r <= last ? a[ia + r] : INFINITY;
        int64_t c0 = ia > w0 ? ia : w0;
        int64_t c1 = ia + ROWS + lb - 2 < w1 ? ia + ROWS + lb - 2 : w1;
        for (int64_t w = c0; w <= c1; w++) {
            int64_t k = w - ia + ROWS - 1;  /* pad[k - r]: b[w - ia - r] */
            double best = out[w - w0];
            for (int r = 0; r < ROWS; r++) {
                double v = rows[r] + pad[k - r];
                best = v < best ? v : best;
            }
            out[w - w0] = best;
        }
    }
}

/* Recombine a plan's nodes in order, then evaluate the root split.
 *
 * plan = [steps, then per step (node, left, right, win_lo, win_hi),
 *         then (root left, root right, budget)].  A step's columns are
 * its natural domain clipped to its budget window.  The root split is
 * ReductionTree.evaluate's: candidate left allocations ascending, the
 * right child read descending, first minimum (first NaN) kept; it
 * writes the total to total_out and (left ways, candidates) to
 * eval_out, candidates 0 when the budget misses the children's domain.
 * scratch holds the widest right operand plus its 2 * (ROWS - 1) pads.
 * Returns 1 if some step's output shape (low end or width) changed, 0
 * if none did, and -1 on an empty window. */
int64_t tree_update(const int64_t* plan, int64_t* nodes, double* scratch,
                    double* total_out, int64_t* eval_out)
{
    int64_t steps = plan[0];
    const int64_t* p = plan + 1;
    int64_t changed = 0;
    for (int64_t s = 0; s < steps; s++, p += 5) {
        int64_t* node = nodes + N_FIELDS * p[0];
        const int64_t* left = nodes + N_FIELDS * p[1];
        const int64_t* right = nodes + N_FIELDS * p[2];
        int64_t lo = left[N_LO] + right[N_LO];
        int64_t hi = lo + left[N_LEN] + right[N_LEN] - 2;
        if (lo < p[3]) lo = p[3];
        if (hi > p[4]) hi = p[4];
        if (lo > hi) return -1;
        combine_window(left, right, lo, hi,
                       (double*)(intptr_t)node[N_ADDR], scratch);
        if (node[N_LO] != lo || node[N_LEN] != hi - lo + 1) {
            node[N_LO] = lo;
            node[N_LEN] = hi - lo + 1;
            changed = 1;
        }
    }
    const int64_t* left = nodes + N_FIELDS * p[0];
    const int64_t* right = nodes + N_FIELDS * p[1];
    int64_t budget = p[2];
    int64_t llo = left[N_LO], rlo = right[N_LO];
    int64_t lo = budget - (rlo + right[N_LEN] - 1);
    int64_t hi = budget - rlo;
    if (lo < llo) lo = llo;
    if (hi > llo + left[N_LEN] - 1) hi = llo + left[N_LEN] - 1;
    eval_out[1] = 0;
    if (lo > hi) return changed;
    const double* L = (const double*)(intptr_t)left[N_ADDR];
    const double* R = (const double*)(intptr_t)right[N_ADDR];
    int64_t rtop = budget - rlo;  /* R[rtop - wa]: right at budget - wa */
    double best = L[lo - llo] + R[rtop - lo];
    int64_t arg = lo;
    if (best == best) {
        for (int64_t wa = lo + 1; wa <= hi; wa++) {
            double v = L[wa - llo] + R[rtop - wa];
            if (v < best) { best = v; arg = wa; }
            else if (v != v) { best = v; arg = wa; break; }
        }
    }
    *total_out = best;
    eval_out[0] = arg;
    eval_out[1] = hi - lo + 1;
    return changed;
}

/* ---- simulator --------------------------------------------------------
 *
 * One wave-loop event, through ONE pointer: an 8-byte slot table whose
 * first slots point at the per-core arrays (EVENT_SLOTS on the Python
 * side) and whose last three hold the scalars: the horizon and the
 * core count in, dt out.  The boundary pick is numpy's:
 * rem = max(n_instr - done, 0) and dts = rem * tpi + stall land in the
 * REM/DTS scratch, and the argmin keeps the first minimum (the first
 * NaN, if any).
 *
 * The advance then derives each core's instruction delta (numpy's
 * elementwise min/div/clamp arithmetic, reusing rem for the clamp) and
 * the maximum of total+delta over active cores.  If any active core
 * would reach the horizon — or dt is negative or NaN — the call returns
 * -1 - b WITHOUT mutating any core state and the caller runs the
 * reference NumPy advance.  Otherwise it applies the unmasked NumPy fast
 * path's per-element operations in the same order and returns b. */
typedef union { void* p; double d; int64_t i; } slot_t;
enum { E_STALL, E_TPI, E_DONE, E_TOTAL, E_ELAPSED, E_NINSTR, E_EPI, E_WORK,
       E_STAT, E_ACTIVE, E_DYN, E_STATIC, E_MEM, E_DINSTR, E_REM, E_DTS,
       E_HORIZON, E_N, E_DT };

int64_t wave_event(slot_t* t)
{
    double* stall = t[E_STALL].p;
    const double* tpi = t[E_TPI].p;
    double* done = t[E_DONE].p;
    double* total = t[E_TOTAL].p;
    double* elapsed = t[E_ELAPSED].p;
    const double* n_instr = t[E_NINSTR].p;
    const double* epi = t[E_EPI].p;
    const double* work = t[E_WORK].p;
    const double* stat = t[E_STAT].p;
    const uint8_t* active = t[E_ACTIVE].p;
    double* core_dyn = t[E_DYN].p;
    double* core_static = t[E_STATIC].p;
    double* mem_j = t[E_MEM].p;
    double* d_out = t[E_DINSTR].p;
    double* rem = t[E_REM].p;
    double* dts = t[E_DTS].p;
    double horizon = t[E_HORIZON].d;
    int64_t n = t[E_N].i;

    for (int64_t i = 0; i < n; i++) {
        double r = n_instr[i] - done[i];
        if (r < 0.0) r = 0.0;
        rem[i] = r;
        dts[i] = r * tpi[i] + stall[i];
    }
    int64_t b = 0;
    double dt = dts[0];
    if (dt == dt) {
        for (int64_t i = 1; i < n; i++) {
            double v = dts[i];
            if (v < dt) { dt = v; b = i; }
            else if (v != v) { dt = v; b = i; break; }
        }
    }
    t[E_DT].d = dt;
    if (!(dt >= 0.0)) return -1 - b;

    double mx = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        double served = stall[i] < dt ? stall[i] : dt;
        double d = (dt - served) / tpi[i];
        double lim = rem[i] + 1e-6;
        if (lim < d) d = lim;
        d_out[i] = d;
        if (active[i]) {
            double tm = total[i] + d;
            if (tm > mx) mx = tm;
        }
    }
    if (mx >= horizon) return -1 - b;
    for (int64_t i = 0; i < n; i++) {
        double served = stall[i] < dt ? stall[i] : dt;
        stall[i] -= served;
        double d = d_out[i];
        core_dyn[i] += epi[i] * d;
        mem_j[i] += (work[i] - epi[i]) * d;
        core_static[i] += stat[i] * dt;
        done[i] += d;
        total[i] += d;
        elapsed[i] += dt;
    }
    return b;
}

/* ---- QoS-violation sweep ----------------------------------------------
 *
 * One phase record under one model.  comp holds Eq. 1's compute term of
 * every current setting, ncf (core size, frequency) columns a row; the
 * prediction of current k for target j is comp[k*ncf + cf[j]] + u[j]*v[k],
 * one rounded multiply and one rounded add, exactly NumPy's.  The pair
 * violates when that is <= thr[k], the current's predicted baseline
 * times 1 + 1e-9, so a tie violates.  counts[j] receives target j's
 * violating currents and mags_out, in row-major (current, target)
 * order, mag[j] once per violating pair; returns their number.
 *
 * Targets go in blocks of 64: the compare loop vectorises into a hit
 * mask, and only the set bits are walked, lowest first. */
int64_t qos_sweep(int64_t n_cur, int64_t ncf, const double* comp,
                  const double* v, const double* thr, int64_t n_tgt,
                  const int64_t* cf, const double* u, const double* mag,
                  int64_t* counts, double* mags_out)
{
    int64_t n = 0;
    for (int64_t j = 0; j < n_tgt; j++) counts[j] = 0;
    for (int64_t k = 0; k < n_cur; k++) {
        const double* row = comp + k * ncf;
        double vk = v[k], tk = thr[k];
        for (int64_t j0 = 0; j0 < n_tgt; j0 += 64) {
            int64_t m = n_tgt - j0 < 64 ? n_tgt - j0 : 64;
            uint64_t hits = 0;
            for (int64_t j = 0; j < m; j++) {
                uint64_t hit = row[cf[j0 + j]] + u[j0 + j] * vk <= tk;
                counts[j0 + j] += hit;
                hits |= hit << j;
            }
            for (; hits; hits &= hits - 1)
                mags_out[n++] = mag[j0 + __builtin_ctzll(hits)];
        }
    }
    return n;
}
"""

#: Candidate flag sets, best first; degrade gracefully for compilers
#: that reject -march=native.  -ffp-contract=off is non-negotiable in
#: every set: a contracted a + b*c FMA rounds once where NumPy rounds
#: twice, which would break bit-identity in the event kernel and the
#: sweep's ``a + u*v`` — no set without it is ever attempted.
_FLAG_SETS = (
    ("-O3", "-march=native", "-ffp-contract=off"),
    ("-O3", "-ffp-contract=off"),
)

#: ``(name prefix, source, flag sets)``: the inputs of
#: :func:`~repro.util.nativebuild.build_shared`, from which ``repro
#: cache`` tells this module's current object from stale ones.
BUILD = ("combine", _SOURCE, _FLAG_SETS)

_P, _I64 = ctypes.c_void_p, ctypes.c_int64
#: ``(restype, argtypes)`` per kernel, for :func:`load_kernels`.
_PROTOTYPES = {
    "tree_update": (_I64, [
        _P,  # plan (int64*)
        _P,  # node table (int64*)
        _P,  # scratch (double*, widest operand + SCRATCH_PAD)
        _P,  # root total out (double*)
        _P,  # root split out (int64[2])
    ]),
    "wave_event": (_I64, [
        _P,  # slot table (EVENT_SLOTS, horizon, n, dt)
    ]),
    "qos_sweep": (_I64, [
        _I64,  # n_cur
        _I64,  # ncf
        _P,  # compute table (double[n_cur * ncf])
        _P,  # v (double[n_cur])
        _P,  # thresholds (double[n_cur])
        _I64,  # n_tgt
        _P,  # compute column per target (int64[n_tgt])
        _P,  # u (double[n_tgt])
        _P,  # magnitude per target (double[n_tgt])
        _P,  # counts out (int64[n_tgt])
        _P,  # magnitudes out (double[n_cur * n_tgt])
    ]),
}


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    return raw_lib() is not None


def raw_lib() -> Optional[ctypes.CDLL]:
    """The loaded library for direct kernel calls, or None.

    Hot paths call the kernels without argument checks; callers must
    pass C-contiguous buffers of the documented dtypes and shapes —
    exactly what :mod:`repro.core.global_opt` and
    :mod:`repro.simulator.rmsim` construct.
    """
    return load_kernels(BUILD, _PROTOTYPES)


def qos_sweep(
    comp: np.ndarray,
    cf: np.ndarray,
    u: np.ndarray,
    v: np.ndarray,
    thr: np.ndarray,
    mag: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, mags)`` of one record's sweep under one model.

    Pair ``(k, j)`` violates when ``comp[k, cf[j]] + u[j] * v[k] <=
    thr[k]``.  ``counts[j]`` is target ``j``'s number of violating
    currents and ``mags`` holds ``mag[j]`` once per violating pair, in
    row-major (current, target) order.
    """
    lib = raw_lib()
    if lib is None:
        raise RuntimeError("native decision kernels unavailable")
    comp, u, v, thr, mag = (
        np.ascontiguousarray(a, dtype=np.float64) for a in (comp, u, v, thr, mag)
    )
    cf = np.ascontiguousarray(cf, dtype=np.int64)
    if comp.ndim != 2 or v.shape != (comp.shape[0],) or thr.shape != v.shape:
        raise ValueError("need one v and one threshold per compute-table row")
    if cf.ndim != 1 or u.shape != cf.shape or mag.shape != cf.shape:
        raise ValueError("need one u and one magnitude per target column")
    if cf.size and (cf.min() < 0 or cf.max() >= comp.shape[1]):
        raise ValueError("target columns must lie in 0..compute columns - 1")
    counts = np.empty(cf.size, dtype=np.int64)
    mags = np.empty(comp.shape[0] * cf.size)
    n = lib.qos_sweep(
        comp.shape[0], comp.shape[1], comp.ctypes.data, v.ctypes.data,
        thr.ctypes.data, cf.size, cf.ctypes.data, u.ctypes.data,
        mag.ctypes.data, counts.ctypes.data, mags.ctypes.data,
    )
    return counts, mags[:n]
