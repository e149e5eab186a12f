"""The per-core Auxiliary Tag Directory.

Replays the core's LLC access stream *in arrival order* (the order requests
reach the cache after out-of-order execution) through a shadow tag array —
one :func:`~repro.cache.replay.replay_access_stream` call from the
generator's warm-up contents (:func:`~repro.cache.replay.prewarm_tags`) —
feeding:

* a :class:`~repro.atd.monitor.RecencyMonitor` — miss counts for every
  candidate allocation (classic UCP utility monitoring), and
* a :class:`~repro.atd.mlp.MLPCounterArray` — the paper's leading-miss
  counters per (core size, allocation).

Set sampling is supported for the recency monitor (UCP's dynamic set
sampling); the MLP counters observe the full monitored stream by default
because thinning an access stream destroys the overlap-group structure the
heuristic measures (an ablation benchmark quantifies exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atd.mlp import MLPCounterArray, MLPEstimate
from repro.atd.monitor import RecencyMonitor
from repro.cache.replay import prewarm_tags, replay_access_stream
from repro.trace.stream import FRESH, AccessStream

__all__ = ["AuxiliaryTagDirectory", "ATDReport"]


@dataclass(frozen=True)
class ATDReport:
    """Everything the RM reads from the ATD at an interval boundary.

    Attributes
    ----------
    miss_curve:
        ``float[max_ways]`` — estimated misses per allocation (nominal
        interval scale).
    mlp:
        Leading-miss estimate per (core size, allocation).
    accesses:
        Total LLC accesses (nominal scale).
    """

    miss_curve: np.ndarray
    mlp: MLPEstimate
    accesses: float

    @property
    def fingerprint(self) -> str:
        """Content hash of everything a model can read from this report.

        Two reports with equal fingerprints are bit-identical inputs, so
        any pure function of a report (e.g. a memoized local-optimisation
        result) may be shared between them.  Cached on first use — the
        interval-recurring reports the simulator hands out are hashed
        exactly once.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            import hashlib
            import struct

            h = hashlib.blake2b(digest_size=16)
            h.update(np.ascontiguousarray(self.miss_curve).tobytes())
            h.update(np.ascontiguousarray(self.mlp.leading_misses).tobytes())
            h.update(np.ascontiguousarray(self.mlp.total_misses).tobytes())
            h.update(struct.pack("<dd", self.mlp.scale, self.accesses))
            cached = h.hexdigest()
            object.__setattr__(self, "_fingerprint", cached)
        return cached


class AuxiliaryTagDirectory:
    """Shadow tag directory + monitors for a single core.

    Parameters
    ----------
    n_sets:
        Sets materialised in the monitored stream.
    max_ways:
        Monitored associativity (16).
    set_sample:
        The recency monitor observes sets ``s % set_sample == 0`` and scales
        counts back up.  ``1`` = full coverage.
    mlp_set_sample:
        Optional sampling for the MLP counters (default full coverage; see
        module docstring).
    """

    def __init__(
        self,
        n_sets: int,
        max_ways: int = 16,
        set_sample: int = 1,
        mlp_set_sample: int = 1,
    ):
        if n_sets < 1 or max_ways < 1:
            raise ValueError("n_sets and max_ways must be >= 1")
        if set_sample < 1 or mlp_set_sample < 1:
            raise ValueError("sampling factors must be >= 1")
        self.n_sets = n_sets
        self.max_ways = max_ways
        self.set_sample = set_sample
        self.mlp_set_sample = mlp_set_sample
        #: The shadow tag array's contents at the start of every replay.
        self._warm = [prewarm_tags(s, max_ways) for s in range(n_sets)]

    def process(self, stream: AccessStream, scale: float = 1.0) -> ATDReport:
        """Replay one interval's stream and produce the RM-facing report.

        The tag array replays the stream in arrival order (exactly as the
        hardware would observe requests) in one replay call; both monitors
        then consume the precomputed recency array instead of re-touching
        the stacks access by access.  Each call replays its stream afresh
        from the warm-up contents: a database build replays every stream
        once, here, because the main tag directory's miss curve comes from
        the generator's realised recencies.

        Parameters
        ----------
        stream:
            Program-ordered access stream.
        scale:
            Sample-to-nominal conversion applied to all counters.
        """
        monitor = RecencyMonitor(self.max_ways, scale=scale * self.set_sample)
        counters = MLPCounterArray(max_ways=self.max_ways)

        # One arrival-order replay call; recencies indexed by stream
        # position, exactly as per-access stack updates would report them.
        sets = stream.set_index
        arrival = stream.in_arrival_order()
        recency, _ = replay_access_stream(
            sets, stream.tag, n_sets=self.n_sets, depth=self.max_ways,
            order=arrival, initial=self._warm,
        )

        if self.set_sample == 1:
            monitor.record_many(recency)
        else:
            monitor.record_many(recency[sets % self.set_sample == 0])

        # The MLP counters are order-sensitive: feed them the arrival-order
        # view of the same recency array.
        rec_seq = recency[arrival].astype(np.int64)
        # predicted to miss at allocations 1..(recency-1); a fresh access
        # misses everywhere.
        miss_ways = np.where(rec_seq == FRESH, self.max_ways, rec_seq - 1)
        observed = miss_ways > 0
        if self.mlp_set_sample > 1:
            observed &= sets[arrival] % self.mlp_set_sample == 0
        counters.observe_many(
            stream.inst_index[arrival][observed], miss_ways[observed]
        )

        mlp_scale = scale * self.mlp_set_sample
        return ATDReport(
            miss_curve=monitor.miss_curve(),
            mlp=counters.snapshot(mlp_scale),
            accesses=monitor.accesses,
        )
