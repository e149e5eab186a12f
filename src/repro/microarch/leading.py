"""Ground-truth leading-miss counting.

A *leading miss* (LM) begins a group of overlapping memory accesses; only
its latency stalls the pipeline, while the remaining misses of the group
(*overlapping*, OV) hide underneath it (Su et al., Miftakhutdinov et al.).

This module computes the oracle LM counts the hardware heuristic of Fig. 4
tries to estimate.  A miss is overlapping iff

1. it is within the instruction window (ROB) of the last leading miss, and
2. it is not serialised behind it by a data dependence: an access whose
   producer (``dep_prev``) itself missed at-or-after the current leading
   miss must wait for that data and cannot overlap.

Unlike the ATD heuristic, the oracle walks the stream in **program order**
with the generator's true dependence links and unwrapped instruction
indices.

:func:`count_leading_misses` is the per-cell reference.
:func:`leading_miss_matrix` evaluates every (core size, allocation) cell at
once: in the compiled ``leading_lanes`` kernel of
:mod:`repro.cache._native` when it is available, otherwise lane by lane in
NumPy.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache import _native
from repro.config import CORE_PARAMS, CoreSize
from repro.trace.stream import FRESH, AccessStream

__all__ = ["leading_miss_matrix", "count_leading_misses"]


def count_leading_misses(stream: AccessStream, rob: int, ways: int) -> int:
    """Oracle LM count for one (ROB size, allocation) pair.

    Reference implementation — clear rather than fast; the production path
    is :func:`leading_miss_matrix`, which evaluates every pair at once.
    """
    if rob < 1 or ways < 1:
        raise ValueError("rob and ways must be >= 1")
    miss = stream.misses_at(ways)
    inst = stream.inst_index
    dep = stream.dep_prev
    lm = 0
    last_lm_pos = -1
    last_lm_inst = -(10**18)
    for k in range(stream.n_accesses):
        if not miss[k]:
            continue
        serialized = dep[k] >= 0 and dep[k] >= last_lm_pos and miss[dep[k]]
        if inst[k] - last_lm_inst >= rob or serialized:
            lm += 1
            last_lm_pos = k
            last_lm_inst = int(inst[k])
    return lm


def leading_miss_matrix(
    stream: AccessStream,
    rob_sizes: Sequence[int] | None = None,
    max_ways: int = 16,
) -> np.ndarray:
    """Oracle LM counts for every (core size, allocation) pair.

    Exploits the nested-miss property of recency semantics: an access of
    recency ``r`` misses exactly at allocations ``w < r`` (every allocation
    for FRESH accesses), so allocation ``w`` sees a subset of the accesses
    allocation ``w - 1`` sees.  The compiled kernel makes one program-order
    pass, access ``k`` with miss prefix ``p`` updating lanes ``w < p``.
    The fallback scans each (core size, allocation) lane on its own
    NumPy-filtered subsequence, walking from one leading miss straight to
    the next.

    Returns
    -------
    ``int64[n_sizes, max_ways]`` where entry ``[c, w-1]`` is LM for ROB
    ``rob_sizes[c]`` at allocation ``w``.
    """
    if rob_sizes is None:
        rob_sizes = [CORE_PARAMS[c].rob for c in CoreSize.all()]
    n_sizes = len(rob_sizes)
    if n_sizes == 0 or any(r < 1 for r in rob_sizes):
        raise ValueError("rob_sizes must be positive")

    recency = stream.recency.astype(np.int64)
    # Miss prefix: the access misses at allocations 1..prefix.
    prefix = np.where(recency == FRESH, max_ways, np.minimum(recency - 1, max_ways))
    dep = stream.dep_prev
    if _native.available():
        return _native.leading_lanes(
            stream.inst_index, prefix, dep, rob_sizes, max_ways
        )
    # A miss is serialised at allocation w only if its producer missed there.
    prod_prefix = np.where(dep >= 0, prefix[np.maximum(dep, 0)], 0)

    counts = np.zeros((n_sizes, max_ways), dtype=np.int64)
    for w in range(max_ways):
        lane = np.flatnonzero(prefix > w)  # stream positions missing at w
        n = lane.size
        if n == 0:
            break  # lanes are nested: larger w see subsets of this one
        # Overlapping misses change no state, so the LM after lane access a
        # is the first later access outside a's ROB window or serialised
        # behind a producer at-or-after a (which missed at w: it is in the
        # lane).  ``after[v]`` is the first access whose producer is lane
        # access v; its suffix minimum, the first at-or-after v.
        serial = np.flatnonzero(prod_prefix[lane] > w)
        after = np.full(n, n)
        np.minimum.at(after, np.searchsorted(lane, dep[lane[serial]]), serial)
        dep_next = np.minimum.accumulate(after[::-1])[::-1]
        inst = stream.inst_index[lane]  # strictly increasing
        for c, rob in enumerate(rob_sizes):
            nxt = np.minimum(np.searchsorted(inst, inst + rob), dep_next).tolist()
            a = lm = 0  # the first miss is always an LM
            while a < n:
                lm += 1
                a = nxt[a]
            counts[c, w] = lm
    return counts
