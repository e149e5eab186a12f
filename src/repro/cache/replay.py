"""LRU stack-distance replay: one oracle, one compiled fast path.

Replaying an access stream through per-set LRU stacks is the substrate of
the ATD: every database build replays each phase record's stream once,
through :meth:`~repro.atd.atd.AuxiliaryTagDirectory.process`, which calls
:func:`replay_access_stream` itself.  That function is the front door to
two engines (pass ``engine="oracle"`` to force the reference at a call
site):

``native``
    A ~30-line C kernel (the per-set stacks packed into one flat int64
    array) compiled on demand with the system C compiler and loaded via
    ``ctypes`` — see :mod:`repro.cache._native`.  The default whenever
    the kernel is available.
``oracle``
    The per-access :class:`~repro.cache.lru.LRUStack` loop, one
    :meth:`LRUStack.access` per access: the reference, and the fallback
    when no compiler exists (or ``REPRO_NO_NATIVE`` is set).

The two are bit-for-bit equivalent, including the final stack state,
which the differential tests in ``tests/test_replay_engine.py`` assert
over random streams, replay orders, depths and warm-up states.  The
front door validates every argument before either engine runs, so the
C kernel never reads or writes outside its buffers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import _native
from repro.cache.lru import LRUStack

__all__ = ["prewarm_tags", "replay_access_stream", "resolve_engine"]

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
    """``"native"`` or ``"oracle"``; ``None`` picks ``native`` when the
    compiled kernel is available and the oracle otherwise."""
    if engine is None:
        return "native" if _native.available() else "oracle"
    if engine not in ("native", "oracle"):
        raise ValueError(
            f"unknown replay engine {engine!r}; options: native, oracle"
        )
    return engine


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
    """Recency of every access, on the engine :func:`resolve_engine` picks.

    ``set_index`` and ``tag`` are the access stream (parallel arrays,
    program order), with set indices in ``[0, n_sets)``; recencies beyond
    ``depth`` (at most 32767, so every recency fits ``int16``) report
    ``FRESH``.  ``order``, a permutation of the stream
    positions, replays in that order (default: program order); results
    are indexed by stream position either way.  ``initial`` holds each
    set's starting contents, MRU first: ``n_sets`` lists of at most
    ``depth`` unique tags, e.g. :func:`prewarm_tags` output or the state
    a previous replay returned.  ``want_state`` also returns the final
    per-set contents, so a later call can continue where this one
    stopped.  Returns ``(recency, state)``: ``int16[n]`` recencies and
    the final :data:`SetState` (``None`` unless ``want_state``).  Every
    argument is checked here, before either engine runs.
    """
    engine = resolve_engine(engine)
    set_index = np.asarray(set_index)
    tag = np.asarray(tag, dtype=np.int64)
    n = len(set_index)
    if n_sets < 1 or not 1 <= depth <= np.iinfo(np.int16).max:
        raise ValueError("need n_sets >= 1 and an int16 depth >= 1")
    if tag.shape != (n,):
        raise ValueError("need one tag per set index")
    if n and (set_index.min() < 0 or set_index.max() >= n_sets):
        raise ValueError(f"set indices must lie in 0..{n_sets - 1}")
    if order is not None:
        order = np.asarray(order, dtype=np.int64)
        in_range = order.shape == (n,) and np.all((order >= 0) & (order < n))
        if not in_range or not np.bincount(order, minlength=n).all():
            raise ValueError("order must be a permutation of the positions")
    if initial is not None and (
        len(initial) != n_sets
        or any(len(c) > depth or len(set(c)) != len(c) for c in initial)
    ):
        raise ValueError(
            f"initial must hold {n_sets} lists of at most {depth} unique tags"
        )
    replay = _native.native_replay if engine == "native" else _oracle_replay
    return replay(
        set_index, tag, n_sets=n_sets, depth=depth, order=order,
        initial=initial, want_state=want_state,
    )


def _oracle_replay(
    set_index: np.ndarray,
    tag: np.ndarray,
    *,
    n_sets: int,
    depth: int,
    order: Optional[np.ndarray],
    initial: Optional[SetState],
    want_state: bool,
) -> Tuple[np.ndarray, Optional[SetState]]:
    """The per-access :class:`LRUStack` loop (the ``"oracle"`` engine)."""
    stacks = [
        LRUStack(depth, None if initial is None else initial[s])
        for s in range(n_sets)
    ]
    sets, tags = set_index.tolist(), tag.tolist()
    recency = [0] * len(sets)
    for k in range(len(sets)) if order is None else order.tolist():
        recency[k] = stacks[sets[k]].access(tags[k])
    state = [s.contents() for s in stacks] if want_state else None
    return np.array(recency, dtype=np.int16), state
