"""The paper's MLP extension to the ATD (Section III-C, Fig. 4).

One :class:`MLPCounterArray` holds, per (core size, way allocation), a
leading-miss counter plus the two registers of the proposed hardware:

* ``last_lm_idx`` — instruction index of the last leading miss (LM),
* ``last_ov_dist`` — distance of the last overlapping miss (OV) to that LM.

Every ATD access that is *predicted to miss* at allocation ``w`` updates the
(c, w) counters using the paper's heuristic:

1. if its distance to the last LM is at least the ROB size of core ``c``,
   it is a new LM (the window cannot cover both);
2. otherwise, if it arrived with a *smaller* distance than the last OV, the
   out-of-order arrival implies a data dependence on the LM, so it is a new
   LM;
3. otherwise it overlaps (OV) and only the distance register is updated.

Instruction indices travel to the ATD in a limited field: the paper uses a
window of four times the maximum ROB (1024 instructions -> 10 bits), so
indices here wrap modulo ``index_window`` and distances are computed in
modular arithmetic — reproducing the (pessimistic) hardware quantisation.

:meth:`MLPCounterArray.observe` is the per-access reference.  Batches go
through :meth:`MLPCounterArray.observe_many`, whose fast path is the
compiled ``mlp_lanes`` kernel of :mod:`repro.cache._native`; its lane-wise
Python loop is the fallback when that kernel is unavailable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.cache import _native
from repro.config import CORE_PARAMS, CoreSize

__all__ = ["MLPCounterArray", "MLPEstimate"]

#: Index window = 4 x max ROB entries (Section III-C): 10 bits.
DEFAULT_INDEX_WINDOW = 4 * CORE_PARAMS[CoreSize.L].rob


@dataclass(frozen=True)
class MLPEstimate:
    """Output of one monitored interval.

    Attributes
    ----------
    leading_misses:
        ``float[n_sizes, max_ways]`` — scaled LM counts per (c, w).
    total_misses:
        ``float[max_ways]`` — scaled predicted-miss counts per allocation.
    scale:
        The scaling factor that was applied to raw counter values.
    """

    leading_misses: np.ndarray
    total_misses: np.ndarray
    scale: float

    def mlp(self) -> np.ndarray:
        """Estimated MLP per (c, w): total misses / leading misses."""
        lm = np.maximum(self.leading_misses, 1e-12)
        return np.where(
            self.leading_misses > 0, self.total_misses[None, :] / lm, 1.0
        )


class MLPCounterArray:
    """Leading-miss counters for every (core size, way allocation) pair.

    Parameters
    ----------
    rob_sizes:
        ROB entries per monitored core size, S->L order (Table I).
    max_ways:
        Number of monitored allocations (16).
    index_window:
        Wrap-around window of the instruction-index field (4 x max ROB).
    counter_bits:
        Width of each LM counter; 27 bits per the paper's overhead analysis.
        Counters saturate rather than wrap.
    """

    def __init__(
        self,
        rob_sizes: Sequence[int] | None = None,
        max_ways: int = 16,
        index_window: int = DEFAULT_INDEX_WINDOW,
        counter_bits: int = 27,
    ):
        if rob_sizes is None:
            rob_sizes = [CORE_PARAMS[c].rob for c in CoreSize.all()]
        if not rob_sizes or any(r < 1 for r in rob_sizes):
            raise ValueError("rob_sizes must be positive")
        if max_ways < 1:
            raise ValueError("max_ways must be >= 1")
        if index_window < max(rob_sizes):
            raise ValueError("index_window must cover at least the max ROB")
        # Windows below 2x the max ROB alias long distances back into the
        # window (criterion 1 can never fire at exactly 1x) — permitted so
        # the hardware-budget sensitivity study can quantify the effect,
        # but real configurations should stay at 2x or above.
        self.rob_sizes = tuple(int(r) for r in rob_sizes)
        self.max_ways = max_ways
        self.index_window = index_window
        self.counter_max = (1 << counter_bits) - 1
        n = len(self.rob_sizes)
        # Register file: one (counter, last LM index, last OV distance) per
        # (c, w).  Stored as plain lists for per-access update speed.
        self._lm = [[0] * max_ways for _ in range(n)]
        self._miss = [0] * max_ways
        self._last_lm_idx = [[-1] * max_ways for _ in range(n)]
        self._last_ov_dist = [[-1] * max_ways for _ in range(n)]

    # ------------------------------------------------------------------
    def observe(self, inst_index: int, predicted_miss_ways: int) -> None:
        """Process one ATD access that misses at allocations 1..k.

        Parameters
        ----------
        inst_index:
            Raw program instruction index; wrapped internally to the
            hardware field width.
        predicted_miss_ways:
            Largest allocation at which this access is predicted to miss
            (``k`` = recency-1 for a recency-r access, or ``max_ways`` for a
            fresh access).  The recency semantics make the miss set a
            prefix: miss at w implies miss at every smaller w.
        """
        k = min(predicted_miss_ways, self.max_ways)
        if k <= 0:
            return
        idx = inst_index % self.index_window
        window = self.index_window
        counter_max = self.counter_max
        for w in range(k):
            self._miss[w] += 1
        for c, rob in enumerate(self.rob_sizes):
            lm_row = self._lm[c]
            lmi_row = self._last_lm_idx[c]
            ovd_row = self._last_ov_dist[c]
            for w in range(k):
                last = lmi_row[w]
                if last < 0:
                    # first LM ever seen by this counter
                    lm_row[w] = min(lm_row[w] + 1, counter_max)
                    lmi_row[w] = idx
                    ovd_row[w] = -1
                    continue
                dist = (idx - last) % window
                if dist >= rob:
                    new_lm = True  # criterion 1: outside the window
                elif ovd_row[w] >= 0 and dist < ovd_row[w]:
                    new_lm = True  # criterion 2: out-of-order arrival => dep
                else:
                    new_lm = False
                if new_lm:
                    lm_row[w] = min(lm_row[w] + 1, counter_max)
                    lmi_row[w] = idx
                    ovd_row[w] = -1
                else:
                    ovd_row[w] = dist
        return

    def observe_many(
        self,
        inst_indices: np.ndarray,
        predicted_miss_ways: np.ndarray,
    ) -> None:
        """Process a batch of predicted misses, in the given order.

        Exactly equivalent to calling :meth:`observe` once per element.
        The compiled kernel (:func:`repro.cache._native.mlp_lanes`) makes
        one pass over the batch, each access updating lanes ``w < k`` of
        every core size.  Without it, the lanes are mutually independent,
        so the batch is processed lane by lane over NumPy-extracted
        subsequences: allocation ``w`` sees exactly the accesses with
        ``miss_ways > w`` (the prefix property).  Either way counters clamp
        once, at the end, which equals clamping at every step because
        counts only grow by 1.
        """
        idx = np.asarray(inst_indices, dtype=np.int64) % self.index_window
        k = np.minimum(
            np.asarray(predicted_miss_ways, dtype=np.int64), self.max_ways
        )
        valid = k > 0
        if not valid.all():
            idx, k = idx[valid], k[valid]
        if idx.size == 0:
            return
        # Predicted-miss totals: an access with cap k updates w = 0..k-1.
        tail = np.cumsum(
            np.bincount(k, minlength=self.max_ways + 1)[::-1]
        )[::-1]
        for w in range(self.max_ways):
            self._miss[w] += int(tail[w + 1])

        window = self.index_window
        counter_max = self.counter_max
        if _native.available():
            regs = _native.mlp_lanes(
                idx, k, self.rob_sizes, window,
                (self._lm, self._last_lm_idx, self._last_ov_dist),
            )
            regs[0] = np.minimum(regs[0], counter_max)
            self._lm, self._last_lm_idx, self._last_ov_dist = regs.tolist()
            return
        for w in range(self.max_ways):
            sub = idx[k > w]
            if sub.size == 0:
                break  # lanes are nested: larger w see subsets of this one
            sub_list = sub.tolist()
            for c, rob in enumerate(self.rob_sizes):
                lm = self._lm[c][w]
                last = self._last_lm_idx[c][w]
                ov = self._last_ov_dist[c][w]
                for x in sub_list:
                    if last < 0:
                        lm += 1
                        last = x
                        ov = -1
                        continue
                    d = x - last
                    if d < 0:  # modular forward distance, both in-window
                        d += window
                    if d >= rob or (0 <= ov and d < ov):
                        lm += 1
                        last = x
                        ov = -1
                    else:
                        ov = d
                self._lm[c][w] = lm if lm <= counter_max else counter_max
                self._last_lm_idx[c][w] = last
                self._last_ov_dist[c][w] = ov

    # ------------------------------------------------------------------
    def snapshot(self, scale: float = 1.0) -> MLPEstimate:
        """Scaled counter values for the interval just monitored."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        lm = np.array(self._lm, dtype=float) * scale
        miss = np.array(self._miss, dtype=float) * scale
        return MLPEstimate(leading_misses=lm, total_misses=miss, scale=scale)

    def reset(self) -> None:
        """Clear counters and registers for the next interval."""
        n = len(self.rob_sizes)
        self._lm = [[0] * self.max_ways for _ in range(n)]
        self._miss = [0] * self.max_ways
        self._last_lm_idx = [[-1] * self.max_ways for _ in range(n)]
        self._last_ov_dist = [[-1] * self.max_ways for _ in range(n)]

    @property
    def storage_bits(self) -> int:
        """Total register storage of the mechanism (overhead accounting).

        Per (c, w): a 27-bit counter; per (c, w) additionally the last-LM
        index (10 bits) and last-OV distance (10 bits) registers.  The paper
        rounds this analysis to "< 300 bytes per core".
        """
        n_counters = len(self.rob_sizes) * self.max_ways
        counter_bits = self.counter_max.bit_length()
        index_bits = (self.index_window - 1).bit_length()
        return n_counters * (counter_bits + 2 * index_bits)
