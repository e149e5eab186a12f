"""Differential tests: the compiled stream kernels and the vectorised trace
loops against the per-access loops they replace.

Every kernel of :mod:`repro.cache._native` is checked, on its fast path and
on its Python fallback, against a per-access oracle on generated inputs:
the Fig. 4 counter lanes against :meth:`MLPCounterArray.observe`, the LRU
realisation against the generator's original loop (and against a replay of
its own output).  The leading-miss lanes are covered by
``tests/test_microarch.py``.  The two generator loops vectorised in NumPy
are checked against their original loops, down to the random generator's
state afterwards.
"""

from __future__ import annotations

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.atd.mlp import MLPCounterArray
from repro.cache import _native
from repro.cache.replay import prewarm_tags, replay_access_stream
from repro.config import default_system
from repro.database.builder import build_phase_record
from repro.experiments.ext_sensitivity import PROBE_APPS
from repro.testing import make_phase
from repro.trace.generator import STACK_DEPTH, PhaseTraceGenerator
from repro.trace.stream import FRESH
from repro.workloads.suite import app_by_name

PATHS = ["fallback"] + (["native"] if _native.available() else [])


def _refuse(*args, **kwargs):
    raise AssertionError("a compiled stream kernel ran on the fallback path")


def on_path(path: str):
    """Run the enclosed calls on the compiled kernels or their fallbacks;
    on the fallback, every compiled entry point raises if called."""
    if path == "native":
        return contextlib.nullcontext()
    return mock.patch.multiple(
        _native,
        available=lambda: False,
        native_replay=_refuse,
        mlp_lanes=_refuse,
        leading_lanes=_refuse,
        realise_recencies=_refuse,
    )


# ---------------------------------------------------------------------------
# The loops the kernels and vectorised paths replaced, kept as oracles
# ---------------------------------------------------------------------------


def realise_oracle(sets, target, n_sets):
    """Per-set LRU stacks walked one access at a time."""
    stacks = [
        [-(s * STACK_DEPTH + d + 1) for d in range(STACK_DEPTH)]
        for s in range(n_sets)
    ]
    tags = np.empty(len(sets), dtype=np.int64)
    realised = np.empty(len(sets), dtype=np.int16)
    next_tag = 1
    for k, (s, r) in enumerate(zip(sets.tolist(), target.tolist())):
        stack = stacks[s]
        if r != FRESH and r <= len(stack):
            tag = stack.pop(r - 1)
            realised[k] = r
        else:
            tag = next_tag
            next_tag += 1
            realised[k] = FRESH
        stack.insert(0, tag)
        del stack[STACK_DEPTH:]
        tags[k] = tag
    return tags, realised


def positions_oracle(spec, n, rng):
    """Burst gaps drawn burst by burst, interleaved with the layout."""
    mean_gap = spec.mean_access_gap
    intra = max(1.0, spec.intra_gap_frac * mean_gap)
    b = spec.burst_len
    inter = max(intra, b * mean_gap - (b - 1.0) * intra)
    p = min(1.0, 1.0 / b)
    lengths = rng.geometric(p, size=max(16, int(2 * n / b) + 16))
    gaps = np.empty(n, dtype=np.float64)
    lead = np.zeros(n, dtype=bool)
    pos = 0
    for blen in lengths:
        blen = int(min(blen, n - pos))
        if blen <= 0:
            break
        gaps[pos] = rng.exponential(inter)
        lead[pos] = True
        if blen > 1:
            gaps[pos + 1 : pos + blen] = rng.exponential(intra, size=blen - 1)
        pos += blen
        if pos >= n:
            break
    if pos < n:
        gaps[pos:] = rng.exponential(inter, size=n - pos)
        lead[pos:] = True
    inst = np.cumsum(np.maximum(1, np.round(gaps)).astype(np.int64))
    return inst, lead


def arrival_oracle(spec, dep_prev, n):
    """Dependence depth by walking every producer link."""
    keys = np.arange(n, dtype=np.float64)
    if spec.dep_arrival_delay > 0 and n:
        depth = np.zeros(n, dtype=np.int64)
        for k in range(n):
            if dep_prev[k] >= 0:
                depth[k] = depth[dep_prev[k]] + 1
        keys += depth * spec.dep_arrival_delay + np.where(depth > 0, 0.5, 0.0)
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.argsort(keys, kind="stable")] = np.arange(n)
    return ranks


class ShortBursts:
    """A generator whose burst lengths run out before the stream does:
    every geometric draw is replaced by 1 after consuming the same state."""

    def __init__(self, rng):
        self._rng = rng

    def geometric(self, p, size):
        return np.ones_like(self._rng.geometric(p, size=size))

    def __getattr__(self, name):
        return getattr(self._rng, name)


# ---------------------------------------------------------------------------
# Fig. 4 counter lanes
# ---------------------------------------------------------------------------

batches = st.lists(
    st.tuples(st.integers(0, 5000), st.integers(0, 18)),  # unordered
    max_size=80,
)


def registers(counters):
    return (
        counters._lm,
        counters._miss,
        counters._last_lm_idx,
        counters._last_ov_dist,
    )


@pytest.mark.parametrize("path", PATHS)
@given(
    first=batches,
    second=batches,
    rob_sizes=st.lists(
        st.sampled_from([1, 32, 64, 128, 256]), min_size=1, max_size=4
    ),
    window_mult=st.sampled_from([1, 2, 4]),
    counter_bits=st.integers(2, 27),
    max_ways=st.integers(1, 16),
)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_mlp_lanes_match_observe(
    path, first, second, rob_sizes, window_mult, counter_bits, max_ways
):
    kw = dict(
        rob_sizes=rob_sizes,
        max_ways=max_ways,
        index_window=window_mult * max(rob_sizes),
        counter_bits=counter_bits,
    )
    bulk, seq = MLPCounterArray(**kw), MLPCounterArray(**kw)
    for batch in (first, second):  # the second continues from the first
        inst = np.array([i for i, _ in batch], dtype=np.int64)
        caps = np.array([k for _, k in batch], dtype=np.int64)
        with on_path(path):
            bulk.observe_many(inst, caps)
        for i, k in batch:
            seq.observe(i, k)
        assert registers(bulk) == registers(seq)


# ---------------------------------------------------------------------------
# LRU realisation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", PATHS)
@given(
    n=st.integers(0, 400),
    n_sets=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, derandomize=True, deadline=None)
def test_realisation_matches_loop_and_replays_back(path, n, n_sets, seed):
    gen = PhaseTraceGenerator(n_sets=n_sets)
    target = np.random.default_rng(seed).integers(0, STACK_DEPTH + 1, n)
    target = target.astype(np.int16)
    with on_path(path):
        sets, tags, realised = gen._realise_addresses(
            target, np.random.default_rng(seed)
        )
    expected_sets = np.random.default_rng(seed).integers(0, n_sets, size=n)
    assert np.array_equal(sets, expected_sets)
    assert sets.dtype == np.int32
    want_tags, want_realised = realise_oracle(sets, target, n_sets)
    assert tags.dtype == np.int64 and realised.dtype == np.int16
    assert np.array_equal(tags, want_tags)
    assert np.array_equal(realised, want_realised)
    assert np.array_equal(realised, target)  # every target is realisable
    replayed, _ = replay_access_stream(
        sets,
        tags,
        n_sets=n_sets,
        depth=STACK_DEPTH,
        initial=[prewarm_tags(s, STACK_DEPTH) for s in range(n_sets)],
    )
    assert np.array_equal(replayed, realised)


# ---------------------------------------------------------------------------
# The two loops vectorised in NumPy
# ---------------------------------------------------------------------------

specs = st.builds(
    make_phase,
    apki=st.floats(1.0, 60.0),
    chain=st.floats(0.0, 1.0),
    burst=st.floats(0.5, 40.0),
    intra=st.floats(0.0, 1.0),
    burst_chain=st.booleans(),
    dep_arrival_delay=st.integers(0, 4),
)


@given(
    spec=specs,
    n=st.integers(0, 600),
    seed=st.integers(0, 2**32 - 1),
    short=st.booleans(),
)
@example(spec=make_phase(), n=0, seed=1, short=False)
# 96 singleton bursts, then the remainder branch fills the other 304
@example(spec=make_phase(burst=10.0), n=400, seed=1, short=True)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_positions_and_arrival_match_loops(spec, n, seed, short):
    gen = PhaseTraceGenerator()
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    if short:  # the remainder branch: singleton bursts after the lengths
        rng, ref = ShortBursts(rng), ShortBursts(ref)
    inst, lead = gen._instruction_positions(spec, n, rng)
    want_inst, want_lead = positions_oracle(spec, n, ref)
    assert inst.dtype == want_inst.dtype and lead.dtype == want_lead.dtype
    assert np.array_equal(inst, want_inst)
    assert np.array_equal(lead, want_lead)
    assert rng.bit_generator.state == ref.bit_generator.state

    dep = gen._dependences(spec, n, rng, lead)
    ranks = gen._arrival_order(spec, dep, n)
    assert np.array_equal(ranks, arrival_oracle(spec, dep, n))


# ---------------------------------------------------------------------------
# Memory-safety guards and whole records
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not _native.available(), reason="no C compiler")
class TestNativeKernels:
    def test_guards_reject_out_of_range_indices(self):
        regs = np.zeros((3, 1, 4), dtype=np.int64).tolist()
        with pytest.raises(ValueError):  # miss cap beyond max_ways
            _native.mlp_lanes([0], [5], [64], 256, regs)
        with pytest.raises(ValueError):  # register files of the wrong shape
            _native.mlp_lanes([0], [1], [64, 128], 256, regs)
        with pytest.raises(ValueError):  # producer not strictly before
            _native.leading_lanes([0, 1], [1, 1], [-1, 1], [64], 4)
        with pytest.raises(ValueError):  # prefix beyond max_ways
            _native.leading_lanes([0], [5], [-1], [64], 4)
        with pytest.raises(ValueError):  # set index out of range
            _native.realise_recencies([0, 4], [0, 0], 4, 16)
        with pytest.raises(ValueError):  # recency deeper than the stacks
            _native.realise_recencies([0], [17], 4, 16)

    @pytest.mark.parametrize("seed", [2020, 4099])
    @pytest.mark.parametrize("app", PROBE_APPS)
    def test_phase_record_matches_fallback(self, app, seed):
        """The ext-sensitivity probe apps at paper scale."""
        system = default_system(4)
        phase = app_by_name(app).phases[0]
        fast = build_phase_record(phase, app, system, seed)
        with on_path("fallback"):
            slow = build_phase_record(phase, app, system, seed)
        for field in dataclasses.fields(fast):
            a, b = getattr(fast, field.name), getattr(slow, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype, field.name
                assert np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
