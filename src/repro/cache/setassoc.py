"""Set-associative LRU tag model over access streams.

:class:`SetAssociativeLRU` replays an :class:`~repro.trace.stream.AccessStream`
through per-set LRU recency state and reports the recency of every access.
It serves two roles:

* as the **main tag directory** of the way-partitioned LLC (an LRU cache
  restricted to ``w`` ways per set hits exactly the accesses whose recency
  is at most ``w`` — the stack-inclusion property), and
* as the tag-array core of the **ATD** (``repro.atd``), which replays the
  same stream in arrival order.

Replays run through :func:`~repro.cache.replay.replay_access_stream` on
one of its interchangeable engines (default: ``REPRO_REPLAY_ENGINE``,
itself ``auto`` — the compiled kernel when a C compiler is available,
NumPy otherwise); ``engine="oracle"`` is the per-access
:class:`~repro.cache.lru.LRUStack` loop, the reference path.  All engines
are bit-for-bit equivalent, including the directory state left behind
after a replay, so engines can be switched mid-stream and results
compared exactly.

:func:`prewarm_tags` reproduces the deterministic warm-up contents the
trace generator installs, standing in for the paper's 100M-instruction
cache warm-up windows.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cache.lru import LRUStack
from repro.cache.replay import prewarm_tags, replay_access_stream, resolve_engine
from repro.trace.stream import AccessStream

__all__ = ["SetAssociativeLRU", "prewarm_tags"]


class SetAssociativeLRU:
    """Per-set LRU recency model with deterministic warm-up.

    Parameters
    ----------
    n_sets:
        Number of (sampled) sets.
    depth:
        Stack depth per set — the maximum monitored allocation (16 ways).
    prewarm:
        Install the generator's warm-up contents (default True).  Without
        warm-up, early deep-recency accesses degrade to compulsory misses.
    engine:
        Replay engine: ``"auto"``, ``"native"``, ``"vector"``, or
        ``"oracle"`` for the reference per-access :class:`LRUStack` loop
        (None: ``REPRO_REPLAY_ENGINE``, default ``"auto"``).
    """

    def __init__(
        self,
        n_sets: int,
        depth: int = 16,
        prewarm: bool = True,
        engine: Optional[str] = None,
    ):
        if n_sets < 1:
            raise ValueError("n_sets must be >= 1")
        self.n_sets = n_sets
        self.depth = depth
        self.engine = resolve_engine(engine)
        if prewarm:
            self._sets = [
                LRUStack(depth, prewarm_tags(s, depth)) for s in range(n_sets)
            ]
        else:
            self._sets = [LRUStack(depth) for _ in range(n_sets)]

    def access(self, set_index: int, tag: int) -> int:
        """Touch one line; return its recency (FRESH on miss)."""
        return self._sets[set_index].access(tag)

    def replay(
        self,
        stream: AccessStream,
        order: Union[None, str, Sequence[int]] = None,
    ) -> np.ndarray:
        """Replay a stream; return the recency of each access.

        Parameters
        ----------
        stream:
            The access stream to replay.
        order:
            Replay order: ``None`` or ``"program"`` for program order,
            ``"arrival"`` for the ATD's arrival-order view, or an explicit
            sequence of stream positions.

        Returns
        -------
        ``int16[n]`` recencies indexed by *stream position* (not replay
        order), so results are directly comparable across replay orders.
        """
        if isinstance(order, str):
            if order not in ("program", "arrival"):
                raise ValueError(f"unknown replay order {order!r}")
            order = None if order == "program" else stream.in_arrival_order()

        recency, state = replay_access_stream(
            stream.set_index,
            stream.tag,
            n_sets=self.n_sets,
            depth=self.depth,
            order=order,
            initial=self.contents(),
            want_state=True,
            engine=self.engine,
        )
        # Mirror the final stack state so access()/contents()/further
        # replays continue exactly where this stream left off.
        self._sets = [LRUStack(self.depth, c) for c in state]
        return recency

    def contents(self) -> List[List[int]]:
        """Snapshot of every set's stack (MRU first)."""
        return [s.contents() for s in self._sets]
