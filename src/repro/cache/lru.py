"""A single LRU recency stack — the replay *reference implementation*.

This is the basic building block of both the main tag directory and the
Auxiliary Tag Directory: a bounded most-recently-used-first list of line
tags whose *lookup position* is the recency (stack distance) used everywhere
in the paper — an access at recency ``r`` hits in any allocation of at least
``r`` ways.

Since the compiled kernel of :mod:`repro.cache.replay` took over the hot
path, this class is the oracle it is differentially tested against, and
the replay fallback when no C compiler exists: clarity beats speed here.
Every operation is a linear scan or shift over a Python list of at most
``depth`` entries — ``access`` pays a ``list.index`` plus an
``insert(0, ...)`` (each O(depth)).  Fine at depth 16 for single probes;
replaying whole streams through it is O(n * depth) Python work, which is
exactly what the compiled kernel exists to avoid.  Misses are reported as
:data:`~repro.trace.stream.FRESH` (the integer 0, never a valid 1-based
recency).
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.trace.stream import FRESH

__all__ = ["LRUStack"]


class LRUStack:
    """Bounded LRU stack over hashable tags.

    Parameters
    ----------
    depth:
        Maximum number of tags retained (the full associativity monitored,
        16 in the paper's configuration).
    initial:
        Optional warm-up contents, most-recently-used first.
    """

    __slots__ = ("depth", "_stack")

    def __init__(self, depth: int, initial: Optional[Iterable[int]] = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self._stack: List[int] = []
        if initial is not None:
            for tag in initial:
                self._stack.append(tag)
            if len(self._stack) > depth:
                raise ValueError("initial contents exceed stack depth")
            if len(set(self._stack)) != len(self._stack):
                raise ValueError("initial contents contain duplicate tags")

    def contents(self) -> List[int]:
        """Snapshot of tags, most-recently-used first."""
        return list(self._stack)

    def access(self, tag: int) -> int:
        """Touch ``tag``; return its recency (1-based) or ``FRESH`` on miss.

        On a hit the tag moves to the MRU position; on a miss it is inserted
        at MRU and the LRU entry is evicted if the stack is full.  ``FRESH``
        (0) is returned for *both* compulsory misses and re-accesses to
        previously evicted tags — the two are indistinguishable to the
        hardware and must stay indistinguishable in any replacement engine.
        Cost: one ``list.index`` scan plus one ``insert(0, ...)`` shift,
        both O(depth) — see the module docstring.
        """
        stack = self._stack
        try:
            pos = stack.index(tag)
        except ValueError:
            stack.insert(0, tag)
            if len(stack) > self.depth:
                stack.pop()
            return FRESH
        stack.pop(pos)
        stack.insert(0, tag)
        return pos + 1
