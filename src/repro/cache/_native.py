"""Optional compiled stream kernels.

The per-access state machines of a database build are inherently
sequential, which caps what pure NumPy can do.  This module holds the
escape hatch: one small C source, built on demand with the system C
compiler and loaded through :mod:`ctypes`.  Each of its four kernels
transcribes a Python loop bit for bit (asserted by the differential tests):

* ``replay`` — :meth:`repro.cache.lru.LRUStack.access` over a whole
  stream, every set's stack packed in one flat ``int64`` array: the fast
  path of :func:`repro.cache.replay.replay_access_stream`;
* ``mlp_lanes`` — the Fig. 4 counter lanes of
  :meth:`repro.atd.mlp.MLPCounterArray.observe_many`;
* ``leading_lanes`` — the leading-miss oracle of
  :func:`repro.microarch.leading.leading_miss_matrix`;
* ``realise`` — the trace generator's per-set LRU realisation of target
  recencies (:mod:`repro.trace.generator`).

The wrappers pass only C-contiguous buffers, and every index the C
dereferences is checked with NumPy first: by the replay front door,
which validates its arguments once for both engines, and by the other
wrappers themselves.  Compilation happens at most once per source
revision: the shared object is cached under ``$REPRO_CACHE_DIR`` (default
``.cache/repro-db``) keyed by a hash of the source, and written atomically
so concurrent builder workers cannot race
(:func:`repro.util.nativebuild.load_kernels`, shared with
:mod:`repro.core._native_opt`).

Everything degrades gracefully: no compiler, a failed compile, or
``REPRO_NO_NATIVE`` set true (:mod:`repro.settings`) simply make
:func:`available` return ``False``, and every caller falls back to its
NumPy or Python path (replay falls back to the
:class:`~repro.cache.lru.LRUStack` oracle).  No exception escapes from
here during normal engine resolution.
"""

from __future__ import annotations

import ctypes
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.util.nativebuild import load_kernels

__all__ = [
    "available",
    "leading_lanes",
    "mlp_lanes",
    "native_replay",
    "realise_recencies",
]

_SOURCE = r"""
#include <stdint.h>

void replay(const int32_t* set_index, const int64_t* tags,
            const int64_t* order, int64_t n, int32_t depth,
            int64_t* stacks, int32_t* lens, int16_t* rec)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t k = order ? order[t] : t;
        int32_t s = set_index[k];
        int64_t tag = tags[k];
        int64_t* st = stacks + (int64_t)s * depth;
        int32_t len = lens[s];
        int32_t pos = -1;
        for (int32_t d = 0; d < len; d++) {
            if (st[d] == tag) { pos = d; break; }
        }
        if (pos < 0) {
            int32_t newlen = len < depth ? len + 1 : depth;
            for (int32_t d = newlen - 1; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            lens[s] = newlen;
            rec[k] = 0; /* FRESH */
        } else {
            for (int32_t d = pos; d > 0; d--) st[d] = st[d - 1];
            st[0] = tag;
            rec[k] = (int16_t)(pos + 1);
        }
    }
}

/* Lane j = c * ways + w holds (count, last LM index, last OV distance). */
void mlp_lanes(const int64_t* idx, const int64_t* k, int64_t n,
               const int64_t* rob, int32_t sizes, int32_t ways,
               int64_t window, int64_t* lm, int64_t* last, int64_t* ov)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t x = idx[t];
        for (int32_t c = 0; c < sizes; c++) {
            for (int64_t j = (int64_t)c * ways; j < (int64_t)c * ways + k[t]; j++) {
                int64_t d = x - last[j];
                if (d < 0) d += window; /* modular forward distance */
                if (last[j] < 0 || d >= rob[c] || (ov[j] >= 0 && d < ov[j])) {
                    lm[j]++;
                    last[j] = x;
                    ov[j] = -1;
                } else {
                    ov[j] = d;
                }
            }
        }
    }
}

/* Lane j = c * ways + w holds (count, last LM position, its instruction). */
void leading_lanes(const int64_t* inst, const int64_t* prefix,
                   const int64_t* dep, int64_t n, const int64_t* rob,
                   int32_t sizes, int32_t ways,
                   int64_t* count, int64_t* last, int64_t* last_inst)
{
    for (int64_t t = 0; t < n; t++) {
        int64_t d = dep[t];
        int64_t producer = d >= 0 ? prefix[d] : 0;
        for (int32_t c = 0; c < sizes; c++) {
            for (int64_t w = 0; w < prefix[t]; w++) {
                int64_t j = (int64_t)c * ways + w;
                if (last[j] < 0 || inst[t] - last_inst[j] >= rob[c]
                    || (w < producer && d >= last[j])) {
                    count[j]++;
                    last[j] = t;
                    last_inst[j] = inst[t];
                }
            }
        }
    }
}

void realise(const int32_t* sets, const int16_t* target, int64_t n,
             int32_t depth, int64_t* stacks, int64_t* tags, int16_t* out)
{
    int64_t next_tag = 1;
    for (int64_t k = 0; k < n; k++) {
        int64_t* st = stacks + (int64_t)sets[k] * depth;
        int32_t r = target[k];
        int64_t tag = r ? st[r - 1] : next_tag++;
        for (int32_t d = r ? r - 1 : depth - 1; d > 0; d--) st[d] = st[d - 1];
        st[0] = tag;
        tags[k] = tag;
        out[k] = (int16_t)r; /* 0 is FRESH */
    }
}
"""

_P, _I32, _I64 = ctypes.c_void_p, ctypes.c_int32, ctypes.c_int64
#: ``(restype, argtypes)`` per kernel, for :func:`load_kernels`.
_PROTOTYPES = {
    "replay": (None, [_P, _P, _P, _I64, _I32, _P, _P, _P]),
    "mlp_lanes": (None, [_P, _P, _I64, _P, _I32, _I32, _I64, _P, _P, _P]),
    "leading_lanes": (None, [_P, _P, _P, _I64, _P, _I32, _I32, _P, _P, _P]),
    "realise": (None, [_P, _P, _I64, _I32, _P, _P, _P]),
}

#: ``(name prefix, source, flag sets)``: the inputs of
#: :func:`~repro.util.nativebuild.build_shared`, from which ``repro
#: cache`` tells this module's current object from stale ones.
BUILD = ("stream", _SOURCE, (("-O3",),))


def available() -> bool:
    """Whether the compiled kernels can be used in this environment."""
    return load_kernels(BUILD, _PROTOTYPES) is not None


def _require() -> ctypes.CDLL:
    lib = load_kernels(BUILD, _PROTOTYPES)
    if lib is None:
        raise RuntimeError("native stream kernels unavailable")
    return lib


def native_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[List[List[int]]] = None,
    want_state: bool = False,
) -> Tuple[np.ndarray, Optional[List[List[int]]]]:
    """The compiled ``"native"`` engine of
    :func:`repro.cache.replay.replay_access_stream`, which checks every
    argument first; this wrapper checks none."""
    lib = _require()
    n = len(set_index)
    stacks = np.zeros(n_sets * depth, dtype=np.int64)
    lens = np.zeros(n_sets, dtype=np.int32)
    if initial is not None:
        for s, contents in enumerate(initial):
            lens[s] = len(contents)
            stacks[s * depth : s * depth + len(contents)] = contents
    recency = np.empty(n, dtype=np.int16)
    if n:
        sets32 = np.ascontiguousarray(set_index, dtype=np.int32)
        tags64 = np.ascontiguousarray(tag, dtype=np.int64)
        if order is None:
            order_ptr = None
        else:
            order64 = np.ascontiguousarray(order, dtype=np.int64)
            order_ptr = order64.ctypes.data
        lib.replay(
            sets32.ctypes.data,
            tags64.ctypes.data,
            order_ptr,
            n,
            depth,
            stacks.ctypes.data,
            lens.ctypes.data,
            recency.ctypes.data,
        )
    if not want_state:
        return recency, None
    state = [
        stacks[s * depth : s * depth + int(lens[s])].tolist()
        for s in range(n_sets)
    ]
    return recency, state


def mlp_lanes(
    idx: np.ndarray,
    k: np.ndarray,
    rob_sizes: Sequence[int],
    window: int,
    registers: Sequence[List[List[int]]],
) -> np.ndarray:
    """The Fig. 4 register files advanced over one batch.

    ``idx`` holds wrapped instruction indices in arrival order, ``k`` each
    access's miss cap in ``1..max_ways``, and ``registers`` the (count,
    last LM index, last OV distance) files, ``[n_sizes][max_ways]`` each.
    Returns them as ``int64[3, n_sizes, max_ways]``, counts unclamped.
    """
    lib = _require()
    idx, k, rob = (
        np.ascontiguousarray(a, dtype=np.int64) for a in (idx, k, rob_sizes)
    )
    regs = np.array(registers, dtype=np.int64)
    if regs.ndim != 3 or regs.shape[:2] != (3, rob.size) or k.size != idx.size:
        raise ValueError("need three [n_sizes][max_ways] files, one cap per index")
    if k.size and (k.min() < 1 or k.max() > regs.shape[2]):
        raise ValueError("miss caps must lie in 1..max_ways")
    lm, last, ov = regs
    lib.mlp_lanes(
        idx.ctypes.data, k.ctypes.data, idx.size, rob.ctypes.data,
        rob.size, regs.shape[2], window,
        lm.ctypes.data, last.ctypes.data, ov.ctypes.data,
    )
    return regs


def leading_lanes(
    inst: np.ndarray,
    prefix: np.ndarray,
    dep: np.ndarray,
    rob_sizes: Sequence[int],
    max_ways: int,
) -> np.ndarray:
    """Leading-miss counts ``int64[n_sizes, max_ways]`` of one stream.

    ``prefix[k]`` is the number of allocations access ``k`` misses at
    (at most ``max_ways``) and ``dep[k]`` its producer's position, strictly
    before ``k``, or negative for none.
    """
    lib = _require()
    inst, prefix, dep, rob = (
        np.ascontiguousarray(a, dtype=np.int64)
        for a in (inst, prefix, dep, rob_sizes)
    )
    n = inst.size
    if prefix.size != n or dep.size != n:
        raise ValueError("inst, prefix and dep must have equal lengths")
    if n and prefix.max() > max_ways:
        raise ValueError("miss prefixes must not exceed max_ways")
    if np.any(dep >= np.arange(n)):
        raise ValueError("dependences must point strictly backwards")
    count = np.zeros((rob.size, max_ways), dtype=np.int64)
    last = np.full_like(count, -1)
    last_inst = np.zeros_like(count)
    lib.leading_lanes(
        inst.ctypes.data, prefix.ctypes.data, dep.ctypes.data, n,
        rob.ctypes.data, rob.size, max_ways,
        count.ctypes.data, last.ctypes.data, last_inst.ctypes.data,
    )
    return count


def realise_recencies(
    sets: np.ndarray, target: np.ndarray, n_sets: int, depth: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``(tags, realised)`` realising target recencies (0 is FRESH).

    The stacks start from :func:`repro.cache.replay.prewarm_tags`; fresh
    tags count up from 1.
    """
    lib = _require()
    sets = np.ascontiguousarray(sets, dtype=np.int32)
    target = np.ascontiguousarray(target, dtype=np.int16)
    n = sets.size
    if target.size != n:
        raise ValueError("one target recency per set index")
    if n and (sets.min() < 0 or sets.max() >= n_sets):
        raise ValueError("set indices must lie in 0..n_sets-1")
    if n and (target.min() < 0 or target.max() > depth):
        raise ValueError("target recencies must lie in 0..depth")
    stacks = -np.arange(1, n_sets * depth + 1, dtype=np.int64)
    tags = np.empty(n, dtype=np.int64)
    realised = np.empty(n, dtype=np.int16)
    lib.realise(
        sets.ctypes.data, target.ctypes.data, n, depth,
        stacks.ctypes.data, tags.ctypes.data, realised.ctypes.data,
    )
    return tags, realised
