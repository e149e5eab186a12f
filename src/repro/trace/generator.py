"""Synthesis of LLC access streams from phase specifications.

The generator realises a :class:`~repro.trace.spec.PhaseSpec` as a concrete
:class:`~repro.trace.stream.AccessStream`:

1. **Instruction positions** — accesses are laid out in bursts: a burst of
   ``B`` accesses separated by small intra-burst gaps, bursts separated by a
   large gap chosen so the *average* access gap matches ``1000/llc_apki``.
   Burst lengths are drawn first, then one exponential gap per access in
   stream order, all in NumPy.
2. **Addresses** — each access targets a recency position drawn from the
   phase's reuse profile and the generator materialises a (set, tag) address
   realising exactly that LRU stack position, maintaining real per-set LRU
   stacks.  The resulting stream, replayed through any LRU model (the main
   tag directory or the ATD), reproduces the intended recency behaviour
   bit-for-bit after warm-up.  The stack walk runs in the compiled
   ``realise`` kernel of :mod:`repro.cache._native` when it is available,
   otherwise in a Python loop.
3. **Dependences** — with probability ``chain_frac`` an access depends on
   its predecessor (pointer chasing), serialising their misses.
4. **Arrival order** — dependent accesses are delayed a few stream positions
   to emulate out-of-order completion; this is the signal the paper's Fig. 4
   heuristic uses to infer dependences at the ATD.  Every dependence links
   an access to its predecessor, so the chain depth is one NumPy running
   maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import ScaleConfig
from repro.trace.spec import PhaseSpec
from repro.trace.stream import FRESH, AccessStream

__all__ = ["IntervalTrace", "PhaseTraceGenerator"]

#: Number of LLC sets materialised in a trace sample.  This is a *sampled*
#: set population (the real LLC has thousands of sets); 64 sets with ~256
#: accesses each give stable recency statistics at sample sizes of 2^14.
TRACE_SETS = 64

#: Maximum LRU stack depth tracked per set (= maximum per-core allocation).
STACK_DEPTH = 16


@dataclass(frozen=True)
class IntervalTrace:
    """A generated representative trace for one phase.

    Attributes
    ----------
    spec:
        The phase specification the trace realises.
    stream:
        The synthesised access stream (program order).
    sample_scale:
        Multiplier converting sampled event counts to nominal per-interval
        counts (events per 100M instructions).
    """

    spec: PhaseSpec
    stream: AccessStream
    sample_scale: float

    @property
    def nominal_accesses(self) -> float:
        """LLC accesses in a nominal (100M instruction) interval."""
        return self.stream.n_accesses * self.sample_scale

    def nominal_miss_curve(self, max_ways: int = STACK_DEPTH) -> np.ndarray:
        """Nominal per-interval miss counts for allocations ``1..max_ways``."""
        return self.stream.miss_counts(max_ways) * self.sample_scale


class PhaseTraceGenerator:
    """Deterministic generator of :class:`IntervalTrace` objects.

    Parameters
    ----------
    scale:
        Reproduction scaling constants (sample size, nominal interval).
    n_sets:
        Number of sampled LLC sets to materialise.
    """

    def __init__(self, scale: ScaleConfig | None = None, n_sets: int = TRACE_SETS):
        if n_sets < 1:
            raise ValueError("n_sets must be >= 1")
        self.scale = scale or ScaleConfig()
        self.n_sets = n_sets

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def generate(self, spec: PhaseSpec, seed: int) -> IntervalTrace:
        """Synthesise the representative trace of ``spec``.

        The same ``(spec, seed)`` pair always produces the identical trace.
        """
        rng = np.random.default_rng(seed)
        n = self.scale.sample_llc_accesses

        inst_index, burst_lead = self._instruction_positions(spec, n, rng)
        target_recency = spec.reuse.sample_recencies(n, rng)
        set_index, tag, realised = self._realise_addresses(target_recency, rng)
        dep_prev = self._dependences(spec, n, rng, burst_lead)
        arrival = self._arrival_order(spec, dep_prev, n)

        n_instructions = int(inst_index[-1]) + 1 if n else 0
        stream = AccessStream(
            inst_index=inst_index,
            set_index=set_index,
            tag=tag,
            recency=realised,
            dep_prev=dep_prev,
            arrival_order=arrival,
            n_instructions=n_instructions,
        )
        return IntervalTrace(
            spec=spec,
            stream=stream,
            sample_scale=self.scale.trace_scale(spec.llc_apki),
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _instruction_positions(
        self, spec: PhaseSpec, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Burst-structured instruction indices with the target mean gap.

        Returns the positions and a boolean mask marking each burst's lead
        access (consumed by the dependence builder).
        """
        mean_gap = spec.mean_access_gap
        intra = max(1.0, spec.intra_gap_frac * mean_gap)
        # Choose the inter-burst gap so the overall mean is preserved:
        #   (B-1) * intra + inter = B * mean_gap
        b = spec.burst_len
        inter = max(intra, b * mean_gap - (b - 1.0) * intra)

        # Sample burst lengths (geometric with the requested mean >= 1).
        p = min(1.0, 1.0 / b)
        lengths = rng.geometric(p, size=max(16, int(2 * n / b) + 16))
        starts = np.cumsum(lengths) - lengths
        lead = np.zeros(n, dtype=bool)
        lead[starts[starts < n]] = True
        # extremely unlikely: lengths run out; the rest are singleton bursts
        lead[min(int(lengths.sum()), n) :] = True
        # One exponential gap per access, in stream order: each burst's
        # first access pays the inter-burst gap.  ``exponential(s)`` draws
        # ``s * standard_exponential()``: the same doubles, the same state.
        gaps = rng.standard_exponential(n) * np.where(lead, inter, intra)
        inst = np.cumsum(np.maximum(1, np.round(gaps)).astype(np.int64))
        return inst, lead

    def _realise_addresses(
        self, target_recency: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Materialise (set, tag) pairs realising the target recencies.

        Per-set LRU stacks are pre-warmed with ``STACK_DEPTH`` lines so the
        first accesses can realise deep recencies; warm-up lines use the
        negative tag space and never collide with generated fresh lines.
        """
        # Deferred import: the cache package imports this module.
        from repro.cache import _native

        n = len(target_recency)
        sets = rng.integers(0, self.n_sets, size=n).astype(np.int32)
        if _native.available():
            tags, realised = _native.realise_recencies(
                sets, target_recency, self.n_sets, STACK_DEPTH
            )
            return sets, tags, realised
        tags = np.empty(n, dtype=np.int64)
        realised = np.empty(n, dtype=np.int16)

        stacks: list[list[int]] = [
            [-(s * STACK_DEPTH + d + 1) for d in range(STACK_DEPTH)]
            for s in range(self.n_sets)
        ]
        next_tag = 1

        for k in range(n):
            stack = stacks[sets[k]]
            r = int(target_recency[k])
            if r != FRESH and r <= len(stack):
                tag = stack.pop(r - 1)
                stack.insert(0, tag)
                tags[k] = tag
                realised[k] = r
            else:
                tag = next_tag
                next_tag += 1
                stack.insert(0, tag)
                del stack[STACK_DEPTH:]
                tags[k] = tag
                realised[k] = FRESH
        return sets, tags, realised

    def _dependences(
        self,
        spec: PhaseSpec,
        n: int,
        rng: np.random.Generator,
        burst_lead: np.ndarray,
    ) -> np.ndarray:
        """Chain dependences.

        Access ``k`` depends on ``k-1`` with probability ``chain_frac``;
        with ``burst_chain``, every burst lead additionally depends on the
        last access of the previous burst (loop-carried dependence).
        """
        dep = np.full(n, -1, dtype=np.int64)
        if n > 1 and spec.chain_frac > 0:
            chained = rng.random(n - 1) < spec.chain_frac
            idx = np.nonzero(chained)[0] + 1
            dep[idx] = idx - 1
        if n > 1 and spec.burst_chain:
            leads = np.nonzero(burst_lead)[0]
            leads = leads[leads > 0]
            dep[leads] = leads - 1
        return dep

    def _arrival_order(
        self, spec: PhaseSpec, dep_prev: np.ndarray, n: int
    ) -> np.ndarray:
        """Emulated out-of-order arrival: dependent accesses are delayed.

        A dependent access must wait for its producer's data, so younger
        independent accesses overtake it on the way to the LLC.  Each access
        gets an arrival key of its stream position pushed back by
        ``dep_arrival_delay`` positions per level of dependence depth —
        delays *compound* along a chain, because every link waits a full
        producer latency.  Keys are ranked stably so equal keys keep program
        order.  :meth:`_dependences` links an access only to its
        predecessor, so the depth is the distance back to the last
        independent access.
        """
        keys = np.arange(n, dtype=np.float64)
        if spec.dep_arrival_delay > 0 and n:
            pos = np.arange(n)
            depth = pos - np.maximum.accumulate(np.where(dep_prev < 0, pos, 0))
            keys += depth * spec.dep_arrival_delay + np.where(depth > 0, 0.5, 0.0)
        ranks = np.empty(n, dtype=np.int64)
        ranks[np.argsort(keys, kind="stable")] = np.arange(n)
        return ranks
