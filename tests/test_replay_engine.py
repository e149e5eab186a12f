"""Differential tests: batched replay engines vs. the LRUStack oracle.

The vectorized (NumPy) and native (compiled) engines must be bit-for-bit
equivalent to driving :class:`repro.cache.lru.LRUStack` one access at a
time — same recency for every access and same final stack state — across
random streams, random replay orders, warm and cold starts, and depths
{1, 4, 16}.  These tests are the contract that lets every consumer (main
tag directory, ATD, database builder) switch engines freely.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.atd.atd import AuxiliaryTagDirectory
from repro.atd.mlp import MLPCounterArray
from repro.atd.monitor import RecencyMonitor
from repro.cache import _native
from repro.cache.lru import LRUStack
from repro.cache import replay as replay_mod
from repro.cache.replay import (
    prewarm_tags,
    replay_access_stream,
    resolve_engine,
    vector_replay,
)
from repro.cache.setassoc import SetAssociativeLRU
from repro.trace.stream import FRESH

DEPTHS = (1, 4, 16)

ENGINES = ["vector"] + (["native"] if _native.available() else [])


def oracle_replay(sets, tags, n_sets, depth, order=None, initial=None):
    """Reference: per-access LRUStack updates."""
    stacks = [
        LRUStack(depth, list(initial[s]) if initial is not None else None)
        for s in range(n_sets)
    ]
    n = len(sets)
    rec = np.empty(n, dtype=np.int16)
    for k in range(n) if order is None else order:
        rec[k] = stacks[sets[k]].access(int(tags[k]))
    return rec, [s.contents() for s in stacks]


def random_case(rng, depth):
    n = int(rng.integers(0, 500))
    n_sets = int(rng.integers(1, 9))
    sets = rng.integers(0, n_sets, n).astype(np.int32)
    tags = rng.integers(0, int(rng.integers(2, 48)), n).astype(np.int64)
    return n, n_sets, sets, tags


class TestVectorEngine:
    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("prewarm", [False, True])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_oracle_on_random_streams(self, depth, prewarm, shuffled):
        rng = np.random.default_rng(hash((depth, prewarm, shuffled)) % 2**32)
        for _ in range(12):
            n, n_sets, sets, tags = random_case(rng, depth)
            order = rng.permutation(n) if shuffled else None
            initial = (
                [prewarm_tags(s, depth) for s in range(n_sets)]
                if prewarm
                else None
            )
            got, state = vector_replay(
                sets, tags, n_sets=n_sets, depth=depth, order=order,
                initial=initial, want_state=True,
            )
            want, want_state = oracle_replay(
                sets, tags, n_sets, depth, order, initial
            )
            assert np.array_equal(got, want)
            assert [list(map(int, c)) for c in state] == want_state

    def test_huge_tag_range_matches_oracle(self):
        """Address-like tags must not overflow the composite sort key."""
        rng = np.random.default_rng(3)
        n, n_sets, depth = 300, 8, 4
        sets = rng.integers(0, n_sets, n).astype(np.int32)
        base = rng.integers(0, 30, n).astype(np.int64)
        tags = base * (2**55) + base  # range >> 2**63 / n_sets
        got, _ = vector_replay(sets, tags, n_sets=n_sets, depth=depth)
        want, _ = oracle_replay(sets, tags, n_sets, depth)
        assert np.array_equal(got, want)

    def test_empty_stream(self):
        rec, state = vector_replay(
            np.empty(0, np.int32), np.empty(0, np.int64),
            n_sets=4, depth=4, want_state=True,
        )
        assert rec.size == 0
        assert state == [[], [], [], []]

    def test_resume_from_partial_state(self):
        """Split replay (two calls, state carried) == single replay."""
        rng = np.random.default_rng(7)
        n, n_sets, depth = 400, 4, 4
        sets = rng.integers(0, n_sets, n).astype(np.int32)
        tags = rng.integers(0, 25, n).astype(np.int64)
        whole, _ = vector_replay(sets, tags, n_sets=n_sets, depth=depth)
        first, mid_state = vector_replay(
            sets[:150], tags[:150], n_sets=n_sets, depth=depth, want_state=True
        )
        second, _ = vector_replay(
            sets[150:], tags[150:], n_sets=n_sets, depth=depth,
            initial=mid_state,
        )
        assert np.array_equal(np.concatenate([first, second]), whole)

    def test_validation(self):
        with pytest.raises(ValueError):
            vector_replay(np.zeros(1, np.int32), np.zeros(1), n_sets=0, depth=4)
        with pytest.raises(ValueError):
            vector_replay(np.zeros(1, np.int32), np.zeros(1), n_sets=1, depth=0)
        with pytest.raises(ValueError):
            vector_replay(
                np.zeros(2, np.int32), np.zeros(2), n_sets=1, depth=4,
                order=[0],
            )


@pytest.mark.skipif(not _native.available(), reason="no C compiler")
class TestNativeEngine:
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_matches_oracle_on_random_streams(self, depth):
        rng = np.random.default_rng(depth)
        for trial in range(16):
            n, n_sets, sets, tags = random_case(rng, depth)
            order = rng.permutation(n) if trial % 2 else None
            initial = (
                [prewarm_tags(s, depth) for s in range(n_sets)]
                if trial % 3 == 0
                else None
            )
            got, state = _native.native_replay(
                sets, tags, n_sets=n_sets, depth=depth, order=order,
                initial=initial, want_state=True,
            )
            want, want_state = oracle_replay(
                sets, tags, n_sets, depth, order, initial
            )
            assert np.array_equal(got, want)
            assert [list(map(int, c)) for c in state] == want_state


class TestSetAssociativeEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("order", ["program", "arrival"])
    def test_stream_replay_matches_oracle(self, cs_trace, generator, engine, order):
        stream = cs_trace.stream
        fast = SetAssociativeLRU(generator.n_sets, engine=engine)
        ref = SetAssociativeLRU(generator.n_sets, engine="oracle")
        assert np.array_equal(
            fast.replay(stream, order), ref.replay(stream, order)
        )
        assert fast.contents() == ref.contents()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_replays_carry_state(self, cs_trace, chain_trace, generator, engine):
        fast = SetAssociativeLRU(generator.n_sets, engine=engine)
        ref = SetAssociativeLRU(generator.n_sets, engine="oracle")
        for trace, order in (
            (cs_trace, "arrival"),
            (chain_trace, "program"),
        ):
            assert np.array_equal(
                fast.replay(trace.stream, order),
                ref.replay(trace.stream, order),
            )
        assert fast.contents() == ref.contents()

    def test_access_after_replay_continues_exactly(self, cs_trace, generator):
        fast = SetAssociativeLRU(generator.n_sets, engine="vector")
        ref = SetAssociativeLRU(generator.n_sets, engine="oracle")
        fast.replay(cs_trace.stream)
        ref.replay(cs_trace.stream)
        for tag in (10**6, 10**6 + 1, 10**6):
            assert fast.access(0, tag) == ref.access(0, tag)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeLRU(4, engine="warp-drive")

    def test_unknown_order_rejected(self, cs_trace, generator):
        model = SetAssociativeLRU(generator.n_sets)
        with pytest.raises(ValueError):
            model.replay(cs_trace.stream, "sideways")


class TestATDEquivalence:
    """The rewritten ATD must equal the original per-access algorithm."""

    def _legacy_process(self, stream, n_sets, max_ways=16, set_sample=1,
                        mlp_set_sample=1, scale=1.0):
        """The seed implementation, verbatim: per-access stack updates."""
        tags_dir = SetAssociativeLRU(n_sets, depth=max_ways, engine="oracle")
        monitor = RecencyMonitor(max_ways, scale=scale * set_sample)
        counters = MLPCounterArray(max_ways=max_ways)
        sets, tags, inst = stream.set_index, stream.tag, stream.inst_index
        for k in stream.in_arrival_order():
            s = int(sets[k])
            recency = tags_dir.access(s, int(tags[k]))
            if s % set_sample == 0:
                monitor.record(recency)
            if s % mlp_set_sample == 0:
                miss_ways = max_ways if recency == FRESH else recency - 1
                if miss_ways > 0:
                    counters.observe(int(inst[k]), miss_ways)
        return monitor, counters.snapshot(scale * mlp_set_sample)

    @pytest.mark.parametrize("set_sample,mlp_sample", [(1, 1), (4, 2)])
    def test_report_matches_legacy(self, cs_trace, generator, set_sample, mlp_sample):
        atd = AuxiliaryTagDirectory(
            generator.n_sets, set_sample=set_sample, mlp_set_sample=mlp_sample
        )
        report = atd.process(cs_trace.stream, scale=1.5)
        monitor, mlp = self._legacy_process(
            cs_trace.stream, generator.n_sets,
            set_sample=set_sample, mlp_set_sample=mlp_sample, scale=1.5,
        )
        assert np.array_equal(report.miss_curve, monitor.miss_curve())
        assert report.accesses == monitor.accesses
        assert np.array_equal(report.mlp.leading_misses, mlp.leading_misses)
        assert np.array_equal(report.mlp.total_misses, mlp.total_misses)

    def test_chain_heavy_stream_matches_legacy(self, chain_trace, generator):
        report = AuxiliaryTagDirectory(generator.n_sets).process(
            chain_trace.stream
        )
        monitor, mlp = self._legacy_process(chain_trace.stream, generator.n_sets)
        assert np.array_equal(report.miss_curve, monitor.miss_curve())
        assert np.array_equal(report.mlp.leading_misses, mlp.leading_misses)


class TestObserveMany:
    def test_equivalent_to_sequential_observe(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(0, 400))
            inst = np.cumsum(rng.integers(1, 40, size=n)).astype(np.int64)
            miss_ways = rng.integers(0, 17, size=n).astype(np.int64)
            bulk = MLPCounterArray()
            seq = MLPCounterArray()
            bulk.observe_many(inst, miss_ways)
            for i, k in zip(inst, miss_ways):
                seq.observe(int(i), int(k))
            a, b = bulk.snapshot(), seq.snapshot()
            assert np.array_equal(a.leading_misses, b.leading_misses)
            assert np.array_equal(a.total_misses, b.total_misses)

    @pytest.mark.parametrize("window", [256, 512, 1024])  # 1x, 2x, 4x ROB
    @pytest.mark.parametrize("counter_bits", [27, 10, 8])
    @pytest.mark.parametrize("trace_name", ["cs_trace", "chain_trace"])
    def test_arrival_order_windows_and_widths(
        self, request, trace_name, window, counter_bits
    ):
        """The ext-sensitivity inputs: arrival-order indices, every index
        window it sweeps, and counters narrow enough to saturate."""
        stream = request.getfixturevalue(trace_name).stream
        arrival = stream.in_arrival_order()
        inst = stream.inst_index[arrival]
        assert np.any(np.diff(inst) < 0)  # out-of-order arrival
        rec = stream.recency[arrival].astype(np.int64)
        miss_ways = np.where(rec == FRESH, 16, rec - 1)
        bulk = MLPCounterArray(index_window=window, counter_bits=counter_bits)
        seq = MLPCounterArray(index_window=window, counter_bits=counter_bits)
        bulk.observe_many(inst, miss_ways)
        for i, k in zip(inst.tolist(), miss_ways.tolist()):
            seq.observe(i, k)
        a, b = bulk.snapshot(), seq.snapshot()
        assert np.array_equal(a.leading_misses, b.leading_misses)
        assert np.array_equal(a.total_misses, b.total_misses)
        if counter_bits == 8:  # both traces overflow an 8-bit counter
            assert np.any(a.leading_misses == (1 << counter_bits) - 1)

    def test_saturation_matches(self):
        bulk = MLPCounterArray(rob_sizes=[64], max_ways=1, counter_bits=2)
        seq = MLPCounterArray(rob_sizes=[64], max_ways=1, counter_bits=2)
        inst = np.arange(10, dtype=np.int64) * 999
        bulk.observe_many(inst, np.ones(10, dtype=np.int64))
        for i in inst:
            seq.observe(int(i), 1)
        assert np.array_equal(
            bulk.snapshot().leading_misses, seq.snapshot().leading_misses
        )


def test_resolve_engine_contract(monkeypatch):
    assert resolve_engine("vector") == "vector"
    assert resolve_engine("oracle") == "oracle"
    assert resolve_engine("auto") in ("native", "vector")
    monkeypatch.setenv("REPRO_REPLAY_ENGINE", "vector")
    settings.resolve()
    assert resolve_engine(None) == "vector"
    with pytest.raises(ValueError):
        resolve_engine("warp-drive")


def test_front_door_oracle_runs_the_lrustack_loop(monkeypatch):
    """``engine="oracle"`` (passed, or from ``REPRO_REPLAY_ENGINE``) runs
    the per-access LRUStack loop, never a batched engine."""

    def refuse(*args, **kwargs):
        raise AssertionError("a batched engine ran for the oracle")

    monkeypatch.setattr(replay_mod, "vector_replay", refuse)
    monkeypatch.setattr(_native, "native_replay", refuse)
    monkeypatch.setenv("REPRO_REPLAY_ENGINE", "oracle")
    settings.resolve()
    rng = np.random.default_rng(5)
    for depth in DEPTHS:
        for engine in ("oracle", None):
            n, n_sets, sets, tags = random_case(rng, depth)
            initial = [prewarm_tags(s, depth) for s in range(n_sets)]
            order = rng.permutation(n)
            want, want_state = oracle_replay(
                sets, tags, n_sets, depth, order, initial
            )
            got, state = replay_access_stream(
                sets,
                tags,
                n_sets=n_sets,
                depth=depth,
                order=order,
                initial=initial,
                want_state=True,
                engine=engine,
            )
            assert got.dtype == np.int16
            assert np.array_equal(got, want)
            assert state == want_state
