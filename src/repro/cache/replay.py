"""Batched stack-distance replay engine.

Replaying an access stream through per-set LRU stacks is the substrate of
the whole reproduction: the main tag directory, the per-core ATD and every
database build funnel through it.  The reference implementation
(:class:`~repro.cache.lru.LRUStack` driven one access at a time) costs a
Python ``list.index`` + ``insert`` per access; this module computes the
identical recency array for a whole stream in one pass, via one of two
interchangeable engines:

``vector``
    Pure NumPy.  A depth-``D`` LRU stack is, at every point in time,
    exactly the top-``D`` prefix of the *infinite* LRU stack over the same
    access sequence (insertion happens at MRU and eviction only trims the
    tail), so the recency of an access is its classic stack distance when
    that is at most ``D`` and :data:`~repro.trace.stream.FRESH` otherwise.
    For an access at within-set position ``j`` whose previous same-tag
    access sits at within-set position ``p``, the stack distance is one
    plus the number of *distinct* tags touched in the window ``(p, j)``.
    With ``prev[i]`` the within-set previous-occurrence position of access
    ``i`` (``-1`` for a first touch)::

        distance(j) = (j - p) - #{ i < j : prev[i] > prev[j] }

    (every window position whose own previous occurrence also falls inside
    the window is a repeat; the strict inequality works because within one
    set all ``prev`` values other than ``-1`` are distinct).  The
    subtracted term is a per-element inversion count, evaluated with a
    bottom-up merge sweep — ``log2`` levels of radix sort + batched
    ``searchsorted`` over flat arrays, restricted to repeat accesses and
    padded per set to a power-of-two stride so no merge block ever spans
    two sets.  ``O(n log n)``, no Python-level per-access work.

``native``
    A ~30-line C kernel (the per-set stacks packed into one flat int64
    array) compiled on demand with the system C compiler and loaded via
    ``ctypes`` — see :mod:`repro.cache._native`.  20-30x faster than the
    Python oracle; silently unavailable when no compiler exists, in which
    case ``auto`` resolves to ``vector``.

Both engines are bit-for-bit equivalent to the :class:`LRUStack` oracle —
including the final stack state — which the differential tests in
``tests/test_replay_engine.py`` assert over random streams, replay orders,
depths and warm-up states.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import settings
from repro.trace.stream import FRESH

__all__ = [
    "prewarm_tags",
    "replay_access_stream",
    "resolve_engine",
    "vector_replay",
]

#: Per-set stack state: tag lists, most-recently-used first.
SetState = List[List[int]]


def prewarm_tags(set_index: int, depth: int) -> List[int]:
    """Deterministic warm-up tags for one set (MRU first).

    Matches :class:`repro.trace.generator.PhaseTraceGenerator`, which warms
    each set with ``depth`` unique placeholder lines from the negative tag
    space so deep recencies are realisable from the first access.
    """
    return [-(set_index * depth + d + 1) for d in range(depth)]


def resolve_engine(engine: Optional[str] = None) -> str:
    """Resolve an engine request to a concrete engine name.

    ``None`` falls back to ``REPRO_REPLAY_ENGINE`` (default ``"auto"``);
    ``"auto"`` picks ``native`` when the compiled kernel is available and
    ``vector`` otherwise.
    """
    if engine is None:
        engine = settings.current().replay_engine
    if engine == "auto":
        from repro.cache import _native

        return "native" if _native.available() else "vector"
    if engine not in settings.REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {engine!r}; "
            f"options: {', '.join(settings.REPLAY_ENGINES)}"
        )
    return engine


# ---------------------------------------------------------------------------
# The pure-NumPy engine
# ---------------------------------------------------------------------------


def _repeat_inversions(
    flatpos: np.ndarray, vals: np.ndarray, m_pad: int, off: int
) -> np.ndarray:
    """Per-element inversion counts over the repeat accesses.

    ``flatpos`` places each repeat in a padded per-set layout of stride
    ``m_pad`` (a power of two, so merge blocks never span sets); ``vals``
    are the within-set previous-occurrence positions, all ``>= 0`` and
    distinct within a set.  Returns, aligned with the inputs, the number
    of earlier same-set repeats with a strictly greater value.
    """
    n = len(flatpos)
    inv = np.zeros(n, dtype=np.int64)
    if m_pad <= 1 or n == 0:
        return inv
    # Composite per-level sort keys must not overflow.
    use32 = int(flatpos[-1] + 1) * off < 2**31 if n else True
    dt = np.int32 if use32 else np.int64
    fp = flatpos.astype(dt)
    vv = vals.astype(dt)
    off = dt(off)
    shift, block = 0, 1
    while block < m_pad:
        bid = fp >> shift
        comp = bid * off + vv
        comp_sorted = np.sort(comp, kind="stable")  # radix sort for ints
        qi = np.nonzero(bid & 1)[0]  # elements in right-half blocks
        if len(qi):
            left = bid[qi] - 1
            # per query: elements in the left sibling block that are
            # <= my value, and the block's total population
            keys = left * off + vv[qi]
            ends = left * off + (off - 1)
            found = np.searchsorted(
                comp_sorted, np.concatenate([keys, ends]), side="right"
            )
            inv[qi] += found[len(qi) :] - found[: len(qi)]
        shift += 1
        block <<= 1
    return inv


def vector_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[SetState] = None,
    want_state: bool = False,
) -> Tuple[np.ndarray, Optional[SetState]]:
    """Recency of every access, computed in one NumPy pass.

    Parameters
    ----------
    set_index, tag:
        The access stream (parallel arrays, program order).
    n_sets:
        Number of sets; ``set_index`` values must lie in ``[0, n_sets)``.
    depth:
        Stack depth per set; recencies beyond it report ``FRESH``.
    order:
        Optional replay order (stream positions).  Defaults to program
        order.  Results are indexed by *stream position* either way.
    initial:
        Optional per-set starting contents, MRU first (each list must hold
        unique tags) — e.g. :func:`prewarm_tags` output, or the current
        state of a partially-replayed directory.
    want_state:
        Also return the final per-set contents (MRU first), so a stateful
        wrapper can continue replaying where this call stopped.

    Returns
    -------
    ``(recency, state)`` where ``recency`` is ``int16[n]`` indexed by
    stream position and ``state`` is the final :data:`SetState` (or
    ``None`` unless ``want_state``).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_sets < 1:
        raise ValueError("n_sets must be >= 1")
    set_index = np.asarray(set_index)
    tag = np.asarray(tag, dtype=np.int64)
    n = len(set_index)

    if order is None:
        s_seq, t_seq = set_index, tag
    else:
        order = np.asarray(order, dtype=np.int64)
        if len(order) != n:
            raise ValueError("order length mismatch")
        s_seq, t_seq = set_index[order], tag[order]

    # Prepend the initial stack contents as pseudo-accesses, LRU first, so
    # after the prefix every stack holds exactly its initial state.
    if initial is not None:
        if len(initial) != n_sets:
            raise ValueError("initial must hold one contents list per set")
        warm_sets = np.repeat(
            np.arange(n_sets, dtype=np.int64), [len(c) for c in initial]
        )
        warm_tags = np.array(
            [t for c in initial for t in reversed(c)], dtype=np.int64
        )
    else:
        warm_sets = np.empty(0, dtype=np.int64)
        warm_tags = np.empty(0, dtype=np.int64)
    n_warm = len(warm_tags)

    S = np.concatenate([warm_sets, np.asarray(s_seq, dtype=np.int64)])
    T = np.concatenate([warm_tags, t_seq])
    total = len(S)
    if total == 0:
        empty = np.empty(0, dtype=np.int16)
        return empty, ([[] for _ in range(n_sets)] if want_state else None)

    # --- within-set replay positions -------------------------------------
    by_set = np.argsort(S.astype(np.int32), kind="stable")
    counts = np.bincount(S, minlength=n_sets)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j_of = np.empty(total, dtype=np.int64)
    j_of[by_set] = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)

    # --- previous occurrence of the same (set, tag) ----------------------
    t_min = int(T.min())
    t_range = int(T.max()) - t_min + 1
    max_key = n_sets * t_range  # python int: no wraparound in the check
    if max_key < 2**63:
        key = S * t_range + (T - t_min)
        if max_key < 2**31:
            key = key.astype(np.int32)
        occ = np.argsort(key, kind="stable")
        same = key[occ][1:] == key[occ][:-1]
    else:
        # Huge tag ranges (e.g. raw physical addresses) would overflow the
        # composite key; pair-sort instead (stable, slightly slower).
        occ = np.lexsort((T, S))
        s_occ, t_occ = S[occ], T[occ]
        same = (s_occ[1:] == s_occ[:-1]) & (t_occ[1:] == t_occ[:-1])
    prev_global = np.full(total, -1, dtype=np.int64)
    prev_global[occ[1:]] = np.where(same, occ[:-1], -1)
    prev_j = np.where(prev_global >= 0, j_of[np.maximum(prev_global, 0)], -1)

    # --- inversion counts over repeats only ------------------------------
    # First occurrences never dominate anything (prev = -1), so compress
    # each set's sequence to its repeats, preserving order.
    inv = np.zeros(total, dtype=np.int64)
    rep_pos = by_set[(prev_global >= 0)[by_set]]  # set-grouped, in order
    if len(rep_pos):
        row = S[rep_pos]
        rep_counts = np.bincount(row, minlength=n_sets)
        max_rep = int(rep_counts.max())
        m_pad = 1 if max_rep <= 1 else 1 << (max_rep - 1).bit_length()
        if m_pad > 1:
            rep_starts = np.concatenate([[0], np.cumsum(rep_counts)[:-1]])
            compressed = np.arange(len(rep_pos)) - np.repeat(
                rep_starts, rep_counts
            )
            inv[rep_pos] = _repeat_inversions(
                row * m_pad + compressed,
                prev_j[rep_pos],
                m_pad,
                int(counts.max()) + 2,
            )

    # --- stack distance -> truncated recency -----------------------------
    dist = j_of - prev_j - inv
    rec_all = np.where((prev_global >= 0) & (dist <= depth), dist, FRESH)
    rec = rec_all[n_warm:].astype(np.int16)

    if order is None:
        recency = rec
    else:
        recency = np.empty(n, dtype=np.int16)
        recency[order] = rec

    if not want_state:
        return recency, None

    # Final contents: the last-touch position of every distinct (set, tag),
    # newest first, truncated to ``depth`` per set.
    is_last = np.concatenate([~same, [True]])
    last_pos = occ[is_last]
    by_recency = np.lexsort((-last_pos, S[last_pos]))
    ordered_pos = last_pos[by_recency]
    ordered_set = S[ordered_pos]
    cnt = np.bincount(ordered_set, minlength=n_sets)
    rank = np.arange(len(ordered_pos)) - np.repeat(
        np.concatenate([[0], np.cumsum(cnt)[:-1]]), cnt
    )
    keep = rank < depth
    kept_tags = T[ordered_pos[keep]]
    bounds = np.cumsum(np.bincount(ordered_set[keep], minlength=n_sets))
    state = [part.tolist() for part in np.split(kept_tags, bounds[:-1])]
    return recency, state


# ---------------------------------------------------------------------------
# Engine-dispatching front door
# ---------------------------------------------------------------------------


def replay_access_stream(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[Sequence[int]] = None,
    initial: Optional[SetState] = None,
    want_state: bool = False,
    engine: Optional[str] = None,
) -> Tuple[np.ndarray, Optional[SetState]]:
    """Replay through the requested engine (see :func:`resolve_engine`)."""
    resolved = resolve_engine(engine)
    if resolved == "native":
        from repro.cache import _native

        return _native.native_replay(
            set_index,
            tag,
            n_sets=n_sets,
            depth=depth,
            order=order,
            initial=initial,
            want_state=want_state,
        )
    return vector_replay(
        set_index,
        tag,
        n_sets=n_sets,
        depth=depth,
        order=order,
        initial=initial,
        want_state=want_state,
    )
