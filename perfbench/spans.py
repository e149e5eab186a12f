"""Span recording and self-time accounting for the traced benchmark run.

A :class:`Recorder` keeps nested spans, counters and distinct-value marks
in memory and appends them to ``<out_dir>/<pid>.jsonl`` each time the
process's span stack empties, so forked pool workers (which never run
exit handlers) leave their spans behind too.  The analysis half of this
module is pure and reads those files back:

* a span's *self time* is its duration minus the part of its interval
  its child spans cover;
* a layer's *total* is the duration of its spans that are not nested in
  another span of the same layer (``plan_all`` calls every module's
  ``specs``; both are the ``plan`` layer and must count once).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "Recorder",
    "Span",
    "self_times",
    "read_trace",
    "layer_totals",
]

#: One finished span: (id, parent id or None, name, start, end).
Span = Tuple[int, Optional[int], str, float, float]


class Recorder:
    """Nested spans, counters and marks of one process, flushed per tree."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.reset()

    def reset(self) -> None:
        """Forget everything (a forked child must not re-emit the parent's)."""
        self.pid = os.getpid()
        self._stack: List[Tuple[int, str, float]] = []
        self._next_id = 0
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self.marks: Dict[str, set] = {}

    def start(self, name: str) -> None:
        self._stack.append((self._next_id, name, time.perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        sid, name, t0 = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append((sid, parent, name, t0, time.perf_counter()))
        if not self._stack:
            self.flush()

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def mark(self, name: str, value: str) -> None:
        self.marks.setdefault(name, set()).add(value)

    def flush(self) -> None:
        """Append what this process recorded since the last flush."""
        if not (self.spans or self.counters or self.marks):
            return
        record = {
            "pid": self.pid,
            "spans": self.spans,
            "counters": self.counters,
            "marks": {k: sorted(v) for k, v in self.marks.items()},
        }
        with open(self.out_dir / f"{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.counters, self.marks = [], {}, {}


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Self time of every span of one process, keyed by span id."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1 in spans:
        if parent is not None:
            children[parent].append((t0, t1))
    return {
        sid: (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        for sid, _parent, _name, t0, t1 in spans
    }


def read_trace(trace_dir: Path) -> Tuple[Dict[int, List[Span]], Dict[str, float], Dict[str, set]]:
    """Spans per pid, summed counters and merged marks of a trace dir."""
    spans: Dict[int, List[Span]] = defaultdict(list)
    counters: Dict[str, float] = defaultdict(float)
    marks: Dict[str, set] = defaultdict(set)
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        for line in path.read_text().splitlines():
            record = json.loads(line)
            spans[record["pid"]].extend(tuple(s) for s in record["spans"])
            for name, value in record["counters"].items():
                counters[name] += value
            for name, values in record["marks"].items():
                marks[name].update(values)
    return dict(spans), dict(counters), dict(marks)


def layer_totals(spans: Iterable[Span], layer_of) -> Dict[str, float]:
    """Duration per layer, skipping spans nested in their own layer.

    ``layer_of`` maps a span name to its layer name.
    """
    spans = list(spans)
    by_id = {s[0]: s for s in spans}
    totals: Dict[str, float] = defaultdict(float)
    for sid, parent, name, t0, t1 in spans:
        layer = layer_of(name)
        ancestor = parent
        while ancestor is not None:
            if layer_of(by_id[ancestor][2]) == layer:
                break
            ancestor = by_id[ancestor][1]
        else:
            totals[layer] += t1 - t0
    return dict(totals)
