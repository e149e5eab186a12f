"""Optional compiled kernels: (min,+) combine and core advance.

The pairwise curve combine is the decision kernel's floor: every
leaf-to-root recombine pays one ``la * lb`` (min,+) convolution, and at
64 cores the top-of-tree operands are hundreds of points wide.  NumPy
pays several full passes over a banded matrix (outer add, argmin, fancy
index); this module holds the escape hatch — a ~20-line C kernel that
walks each output column's band once — built on demand with the system C
compiler and loaded through :mod:`ctypes`, exactly the pattern of the
replay engine's :mod:`repro.cache._native`.

Bit-identity is structural: each cell is the single addition
``a[ia] + b[w - ia]`` (no fusion or reassociation is possible) and the
column minimum keeps the first row achieving it — the same strict-less
scan :func:`numpy.argmin` performs over the skew-viewed band, including
the all-infeasible convention (``choice`` stays at the first row).  The
differential tests assert equality against the NumPy kernel, which
itself is pinned to the scalar reference.

Alongside the combine/path kernels this module carries the wave loop's
fused per-event advance (``advance_fast``).

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE`` set true (:mod:`repro.settings`) make
:func:`available` return ``False`` and the tree fall back to the NumPy
combine (and the wave loop to its NumPy advance).
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro import settings
from repro.util.nativebuild import build_shared

__all__ = ["available", "native_combine", "native_combine_window"]

_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <math.h>

/* Column minima of the (min,+) band over one operand pair, restricted
 * to output columns [w0, w1] (0-based, relative to the combined
 * domain's low end).
 *
 * `b` is consumed REVERSED (brev[j] == b[lb-1-j]) so each column's band
 * is the elementwise sum of two forward contiguous streams —
 * a[ia] + brev[ia + (lb-1-w)] — which the compiler vectorises.  Two
 * passes per column: a pure SIMD-friendly min reduction (min is exactly
 * associative, so any reduction order yields the bit-identical result),
 * then a first-exact-match scan, which recovers precisely the row the
 * reference's strict-less scan keeps (numpy.argmin's first-minimum
 * tie-break; +inf padding can never equal a finite minimum).  An
 * all-infeasible column keeps arg 0 — numpy's convention for an all-inf
 * column of the skewed band view. */
static void combine_cols(const double* restrict a, int64_t la,
                         const double* restrict brev, int64_t lb,
                         int64_t w0, int64_t w1, int64_t base,
                         double* restrict best, int64_t* restrict choice)
{
    for (int64_t w = w0; w <= w1; w++) {
        int64_t lo = w - (lb - 1); if (lo < 0) lo = 0;
        int64_t hi = w < la - 1 ? w : la - 1;
        int64_t off = lb - 1 - w;
        double bst = INFINITY;
        /* min is exactly associative and commutative (inf included), so
         * a SIMD reduction is bit-identical to the sequential scan; the
         * elementwise adds are untouched.  The pragma is inert without
         * -fopenmp-simd. */
        #pragma omp simd reduction(min:bst)
        for (int64_t ia = lo; ia <= hi; ia++) {
            double v = a[ia] + brev[ia + off];
            bst = v < bst ? v : bst;
        }
        int64_t arg = 0;
        if (bst < INFINITY) {
            for (int64_t ia = lo; ia <= hi; ia++) {
                if (a[ia] + brev[ia + off] == bst) { arg = ia; break; }
            }
        }
        best[w - w0] = bst;
        choice[w - w0] = base + arg;
    }
}

void combine(const double* a, int64_t la, const double* b, int64_t lb,
             int64_t w0, int64_t w1, double* best, int64_t* choice)
{
    double stackbuf[2048];
    double* brev = lb <= 2048 ? stackbuf
                              : (double*)malloc((size_t)lb * sizeof(double));
    if (brev != NULL) {
        for (int64_t j = 0; j < lb; j++) brev[j] = b[lb - 1 - j];
        combine_cols(a, la, brev, lb, w0, w1, 0, best, choice);
        if (brev != stackbuf) free(brev);
        return;
    }
    /* Allocation failed: direct unreversed scan (identical results,
     * just unvectorised). */
    for (int64_t w = w0; w <= w1; w++) {
        int64_t lo = w - (lb - 1); if (lo < 0) lo = 0;
        int64_t hi = w < la - 1 ? w : la - 1;
        double bst = INFINITY; int64_t arg = 0;
        for (int64_t ia = lo; ia <= hi; ia++) {
            double v = a[ia] + b[w - ia];
            if (v < bst) { bst = v; arg = ia; }
        }
        best[w - w0] = bst; choice[w - w0] = arg;
    }
}

/* One leaf-to-root path recombine in a single call: level l combines the
 * previous level's output (`cur`, the path-side child) with that level's
 * sibling curve, restricted to the level's output window — VALUES ONLY.
 * Back-tracking choices are not materialised here: the caller recovers
 * any queried column's first-minimum choice lazily from the (consistent)
 * child curves, so the hot path pays just one vectorised min reduction
 * per column. */
void path_update(int64_t levels, const double* cur, int64_t cur_n,
                 const double* const* sibs, const int64_t* sib_n,
                 const int64_t* sib_is_left,
                 const int64_t* w0, const int64_t* w1,
                 double* const* bests, double* scratch)
{
    for (int64_t l = 0; l < levels; l++) {
        const double *a, *b; int64_t la, lb;
        if (sib_is_left[l]) { a = sibs[l]; la = sib_n[l]; b = cur; lb = cur_n; }
        else { a = cur; la = cur_n; b = sibs[l]; lb = sib_n[l]; }
        for (int64_t j = 0; j < lb; j++) scratch[j] = b[lb - 1 - j];
        double* best = bests[l];
        int64_t first = w0[l], last = w1[l];
        for (int64_t w = first; w <= last; w++) {
            int64_t lo = w - (lb - 1); if (lo < 0) lo = 0;
            int64_t hi = w < la - 1 ? w : la - 1;
            int64_t off = lb - 1 - w;
            double bst = INFINITY;
            #pragma omp simd reduction(min:bst)
            for (int64_t ia = lo; ia <= hi; ia++) {
                double v = a[ia] + scratch[ia + off];
                bst = v < bst ? v : bst;
            }
            best[w - first] = bst;
        }
        cur = best; cur_n = last - first + 1;
    }
}

/* The wave simulator's fast-path core advance: one call performs the
 * whole per-event elementwise update the NumPy kernel would issue a
 * dozen dispatches for.  Pass 1 derives each core's instruction delta
 * (exactly numpy's elementwise min/div/clamp arithmetic) and the masked
 * maximum of total+delta over active cores; if any active core would
 * reach the horizon the call returns 1 WITHOUT mutating anything and
 * the caller runs the reference finish-event path.  Pass 2 applies the
 * same independent per-element operations the unmasked NumPy fast path
 * applies, in the same per-element order. */
int64_t advance_fast(double dt, double horizon, int64_t n,
                     double* stall, const double* tpi,
                     double* instr_done, double* total, double* elapsed,
                     const double* n_instr, const double* epi,
                     const double* work, const double* stat,
                     const uint8_t* active,
                     double* core_dyn, double* core_static, double* mem_j,
                     double* d_out)
{
    double mx = -INFINITY;
    for (int64_t i = 0; i < n; i++) {
        double served = stall[i] < dt ? stall[i] : dt;
        double run = dt - served;
        double d = run / tpi[i];
        double rem = n_instr[i] - instr_done[i];
        if (rem < 0.0) rem = 0.0;
        double lim = rem + 1e-6;
        if (lim < d) d = lim;
        d_out[i] = d;
        if (active[i]) {
            double tm = total[i] + d;
            if (tm > mx) mx = tm;
        }
    }
    if (mx >= horizon) return 1;
    for (int64_t i = 0; i < n; i++) {
        double served = stall[i] < dt ? stall[i] : dt;
        stall[i] -= served;
        double d = d_out[i];
        core_dyn[i] += epi[i] * d;
        mem_j[i] += (work[i] - epi[i]) * d;
        core_static[i] += stat[i] * dt;
        instr_done[i] += d;
        total[i] += d;
        elapsed[i] += dt;
    }
    return 0;
}
"""

_lib: Optional[ctypes.CDLL] = None
_lib_failed = False


def _cache_dir() -> Path:
    from repro.database.store import cache_dir

    return cache_dir() / "native"


#: Candidate flag sets, best first; degrade gracefully for compilers
#: that reject -march=native or -fopenmp-simd (the pragma is inert
#: without it — results identical, just slower).  -ffp-contract=off is
#: non-negotiable in every set: a contracted a + b*c FMA rounds once
#: where NumPy rounds twice, which would break bit-identity in the
#: advance kernel — no set without it is ever attempted.
_FLAG_SETS = (
    ("-O3", "-march=native", "-fopenmp-simd", "-ffp-contract=off"),
    ("-O3", "-fopenmp-simd", "-ffp-contract=off"),
    ("-O3", "-ffp-contract=off"),
)


def _compile() -> Optional[Path]:
    return build_shared(_SOURCE, _cache_dir(), "combine", _FLAG_SETS)


def _load() -> Optional[ctypes.CDLL]:
    global _lib, _lib_failed
    if _lib is not None or _lib_failed:
        return _lib
    if settings.current().no_native:
        _lib_failed = True
        return None
    so_path = _compile()
    if so_path is None:
        _lib_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(so_path))
        lib.combine.restype = None
        lib.combine.argtypes = [
            ctypes.c_void_p,  # a (double*)
            ctypes.c_int64,  # la
            ctypes.c_void_p,  # b (double*)
            ctypes.c_int64,  # lb
            ctypes.c_int64,  # w0 (first output column)
            ctypes.c_int64,  # w1 (last output column)
            ctypes.c_void_p,  # best (double*)
            ctypes.c_void_p,  # choice (int64*)
        ]
        lib.path_update.restype = None
        lib.path_update.argtypes = [
            ctypes.c_int64,  # levels
            ctypes.c_void_p,  # cur (double*)
            ctypes.c_int64,  # cur_n
            ctypes.c_void_p,  # sibs (double**)
            ctypes.c_void_p,  # sib_n (int64*)
            ctypes.c_void_p,  # sib_is_left (int64*)
            ctypes.c_void_p,  # w0 (int64*)
            ctypes.c_void_p,  # w1 (int64*)
            ctypes.c_void_p,  # bests (double**)
            ctypes.c_void_p,  # scratch (double*, capacity >= max operand)
        ]
        lib.advance_fast.restype = ctypes.c_int64
        lib.advance_fast.argtypes = [
            ctypes.c_double,  # dt
            ctypes.c_double,  # horizon
            ctypes.c_int64,  # n
        ] + [ctypes.c_void_p] * 14  # per-core state arrays
    except OSError:
        _lib_failed = True
        return None
    _lib = lib
    return _lib


def available() -> bool:
    """Whether the compiled kernel can be used in this environment."""
    return _load() is not None


def raw_lib() -> Optional[ctypes.CDLL]:
    """The loaded library for direct ``lib.combine`` calls, or None.

    Hot paths (the reduction tree's per-update recombines) call the
    kernel without the wrapper's contiguity/window checks; callers must
    pass C-contiguous float64/int64 buffers and a valid column window —
    exactly what :mod:`repro.core.global_opt` constructs.
    """
    return _load()


def native_combine_window(
    a_energy: np.ndarray,
    b_energy: np.ndarray,
    w0: int,
    w1: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """(min,+) column minima for output columns ``[w0, w1]`` of the band.

    Columns are 0-based relative to the combined domain's low end;
    ``arg`` holds 0-based indices into ``a_energy`` (the caller adds
    ``a.w_min``).  Raises when the kernel is unavailable — callers gate
    on :func:`available`.
    """
    lib = _load()
    if lib is None:
        raise RuntimeError("native combine kernel unavailable")
    a = np.ascontiguousarray(a_energy, dtype=float)
    b = np.ascontiguousarray(b_energy, dtype=float)
    width = a.size + b.size - 1
    if not 0 <= w0 <= w1 <= width - 1:
        raise ValueError("output column window outside the band")
    n = w1 - w0 + 1
    best = np.empty(n)
    arg = np.empty(n, dtype=np.int64)
    lib.combine(
        a.ctypes.data,
        a.size,
        b.ctypes.data,
        b.size,
        w0,
        w1,
        best.ctypes.data,
        arg.ctypes.data,
    )
    return best, arg


def native_combine(
    a_energy: np.ndarray, b_energy: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Full-band :func:`native_combine_window` (every output column)."""
    return native_combine_window(
        a_energy, b_energy, 0, a_energy.size + b_energy.size - 2
    )
