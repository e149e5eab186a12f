"""Differential tests: the replay engines vs. the LRUStack oracle.

The compiled engine and the front door's oracle loop must be bit-for-bit
equivalent to driving :class:`repro.cache.lru.LRUStack` one access at a
time — same recency for every access and same final stack state — across
random streams, random replay orders, warm and cold starts, and depths
{1, 4, 16}.  These tests are the contract that lets every consumer (the
ATD and so every database build) switch engines freely.  The front door
must also reject, on every engine, each argument that would send the
compiled kernel outside its buffers.
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
from repro.cache.replay import (
    prewarm_tags,
    replay_access_stream,
    resolve_engine,
)
from repro.trace.stream import FRESH
from repro.util import nativebuild

DEPTHS = (1, 4, 16)

ENGINES = ["oracle"] + (["native"] if _native.available() else [])


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


def warm_stacks(n_sets, depth=16):
    """Per-set LRUStacks holding the generator's warm-up contents."""
    return [LRUStack(depth, prewarm_tags(s, depth)) for s in range(n_sets)]


def per_access(stacks, stream, order):
    """Reference: one :meth:`LRUStack.access` per access of a stream."""
    rec = np.empty(stream.n_accesses, dtype=np.int16)
    if order == "arrival":
        positions = stream.in_arrival_order()
    else:
        positions = range(stream.n_accesses)
    for k in positions:
        rec[k] = stacks[stream.set_index[k]].access(int(stream.tag[k]))
    return rec


def front_door(stream, n_sets, order, engine, initial=None):
    """One replay of a whole stream; ``(recency, final state)``."""
    return replay_access_stream(
        stream.set_index, stream.tag, n_sets=n_sets, depth=16,
        order=stream.in_arrival_order() if order == "arrival" else None,
        initial=initial or [prewarm_tags(s, 16) for s in range(n_sets)],
        want_state=True, engine=engine,
    )


def random_case(rng, depth):
    n = int(rng.integers(0, 500))
    n_sets = int(rng.integers(1, 9))
    sets = rng.integers(0, n_sets, n).astype(np.int32)
    tags = rng.integers(0, int(rng.integers(2, 48)), n).astype(np.int64)
    return n, n_sets, sets, tags


class TestVectorEngine:
    """The deleted NumPy engine's differential cases, run through the
    front door on every available engine.  The class keeps that engine's
    name so the cases keep their test IDs."""

    @pytest.mark.parametrize("depth", DEPTHS)
    @pytest.mark.parametrize("prewarm", [False, True])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_matches_oracle_on_random_streams(self, depth, prewarm, shuffled):
        for engine in ENGINES:
            rng = np.random.default_rng(hash((depth, prewarm, shuffled)) % 2**32)
            for _ in range(12):
                n, n_sets, sets, tags = random_case(rng, depth)
                order = rng.permutation(n) if shuffled else None
                initial = (
                    [prewarm_tags(s, depth) for s in range(n_sets)]
                    if prewarm
                    else None
                )
                got, state = replay_access_stream(
                    sets, tags, n_sets=n_sets, depth=depth, order=order,
                    initial=initial, want_state=True, engine=engine,
                )
                want, want_state = oracle_replay(
                    sets, tags, n_sets, depth, order, initial
                )
                assert np.array_equal(got, want), engine
                assert [list(map(int, c)) for c in state] == want_state

    def test_huge_tag_range_matches_oracle(self):
        """Address-sized tags replay exactly."""
        rng = np.random.default_rng(3)
        n, n_sets, depth = 300, 8, 4
        sets = rng.integers(0, n_sets, n).astype(np.int32)
        base = rng.integers(0, 30, n).astype(np.int64)
        tags = base * (2**55) + base  # range >> 2**63 / n_sets
        want, want_state = oracle_replay(sets, tags, n_sets, depth)
        for engine in ENGINES:
            got, state = replay_access_stream(
                sets, tags, n_sets=n_sets, depth=depth, want_state=True,
                engine=engine,
            )
            assert np.array_equal(got, want), engine
            assert state == want_state

    def test_empty_stream(self):
        for engine in ENGINES:
            rec, state = replay_access_stream(
                np.empty(0, np.int32), np.empty(0, np.int64),
                n_sets=4, depth=4, order=[], want_state=True, engine=engine,
            )
            assert rec.dtype == np.int16 and rec.size == 0
            assert state == [[], [], [], []]

    def test_resume_from_partial_state(self):
        """Split replay (two calls, state carried) == single replay."""
        rng = np.random.default_rng(7)
        n, n_sets, depth = 400, 4, 4
        sets = rng.integers(0, n_sets, n).astype(np.int32)
        tags = rng.integers(0, 25, n).astype(np.int64)
        for engine in ENGINES:
            kwargs = dict(n_sets=n_sets, depth=depth, engine=engine)
            whole, _ = replay_access_stream(sets, tags, **kwargs)
            first, mid_state = replay_access_stream(
                sets[:150], tags[:150], want_state=True, **kwargs
            )
            second, _ = replay_access_stream(
                sets[150:], tags[150:], initial=mid_state, **kwargs
            )
            assert np.array_equal(np.concatenate([first, second]), whole)

    def test_validation(self):
        for engine in ENGINES:
            with pytest.raises(ValueError):
                replay_access_stream(
                    np.zeros(1, np.int32), np.zeros(1), n_sets=0, depth=4,
                    engine=engine,
                )
            with pytest.raises(ValueError):
                replay_access_stream(
                    np.zeros(1, np.int32), np.zeros(1), n_sets=1, depth=0,
                    engine=engine,
                )
            with pytest.raises(ValueError):
                replay_access_stream(
                    np.zeros(2, np.int32), np.zeros(2), n_sets=1, depth=4,
                    order=[0], engine=engine,
                )


#: One argument per case that would take the compiled kernel outside its
#: buffers or wrap its int16 recencies (or, on the oracle, wrap a set
#: index or leave a recency slot unwritten); every other argument is
#: valid.
MALFORMED = {
    "no_sets": dict(n_sets=0),
    "no_depth": dict(depth=0),
    "depth_past_int16": dict(depth=2**15),
    "short_tags": dict(tag=np.arange(1)),
    "set_past_end": dict(set_index=np.array([0, 3], np.int32)),
    "set_negative": dict(set_index=np.array([0, -2], np.int32)),
    "order_past_end": dict(order=[0, 5]),
    "order_negative": dict(order=[0, -1]),
    "order_repeats": dict(order=[1, 1]),
    "order_short": dict(order=[0]),
    "initial_per_set": dict(initial=[[]]),
    "initial_too_deep": dict(initial=[[1, 2, 3, 4, 5], []]),
    "initial_duplicates": dict(initial=[[7, 7], []]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("engine", ENGINES)
def test_front_door_rejects_malformed_arguments(engine, case):
    """Checked once, before dispatch, the same way on every engine."""
    args = dict(
        set_index=np.arange(2, dtype=np.int32), tag=np.arange(2), n_sets=2,
        depth=4,
    )
    args.update(MALFORMED[case])
    with pytest.raises(ValueError):
        replay_access_stream(
            args.pop("set_index"), args.pop("tag"), want_state=True,
            engine=engine, **args,
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
    """Generated streams through the front door from the generator's
    warm-up contents (the class keeps the name of the deleted
    set-associative wrapper so the cases keep their test IDs)."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("order", ["program", "arrival"])
    def test_stream_replay_matches_oracle(self, cs_trace, generator, engine, order):
        stream = cs_trace.stream
        ref = warm_stacks(generator.n_sets)
        got, state = front_door(stream, generator.n_sets, order, engine)
        assert np.array_equal(got, per_access(ref, stream, order))
        assert state == [s.contents() for s in ref]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sequential_replays_carry_state(self, cs_trace, chain_trace, generator, engine):
        ref = warm_stacks(generator.n_sets)
        state = None
        for trace, order in (
            (cs_trace, "arrival"),
            (chain_trace, "program"),
        ):
            got, state = front_door(
                trace.stream, generator.n_sets, order, engine, state
            )
            assert np.array_equal(got, per_access(ref, trace.stream, order))
        assert state == [s.contents() for s in ref]

    def test_access_after_replay_continues_exactly(self, cs_trace, generator):
        for engine in ENGINES:
            ref = warm_stacks(generator.n_sets)
            per_access(ref, cs_trace.stream, "program")
            _, state = front_door(cs_trace.stream, generator.n_sets, "program", engine)
            for tag in (10**6, 10**6 + 1, 10**6):
                got, state = replay_access_stream(
                    np.zeros(1, np.int32), np.array([tag]),
                    n_sets=generator.n_sets, depth=16, initial=state,
                    want_state=True, engine=engine,
                )
                assert got[0] == ref[0].access(tag)

    def test_unknown_engine_rejected(self):
        for name in ("warp-drive", "auto", "vector"):
            with pytest.raises(ValueError):
                replay_access_stream(
                    np.zeros(1, np.int32), np.zeros(1), n_sets=4, depth=16,
                    engine=name,
                )

    def test_unknown_order_rejected(self, cs_trace, generator):
        """An order must permute the stream positions: the instruction
        indices the stream also carries are not one."""
        stream = cs_trace.stream
        with pytest.raises(ValueError):
            replay_access_stream(
                stream.set_index, stream.tag, n_sets=generator.n_sets,
                depth=16, order=stream.inst_index,
            )


class TestATDEquivalence:
    """The rewritten ATD must equal the original per-access algorithm."""

    def _legacy_process(self, stream, n_sets, max_ways=16, set_sample=1,
                        mlp_set_sample=1, scale=1.0):
        """The seed implementation: per-access stack updates."""
        tags_dir = warm_stacks(n_sets, max_ways)
        monitor = RecencyMonitor(max_ways, scale=scale * set_sample)
        counters = MLPCounterArray(max_ways=max_ways)
        sets, tags, inst = stream.set_index, stream.tag, stream.inst_index
        for k in stream.in_arrival_order():
            s = int(sets[k])
            recency = tags_dir[s].access(int(tags[k]))
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


def _without_kernels(monkeypatch):
    """Resolve as a host without a C compiler would."""
    monkeypatch.delitem(nativebuild._loaded, _native.BUILD[0], raising=False)
    monkeypatch.setenv("REPRO_NO_NATIVE", "1")
    settings.resolve()


def test_resolve_engine_contract(monkeypatch):
    assert resolve_engine("oracle") == "oracle"
    assert resolve_engine("native") == "native"
    assert resolve_engine(None) == ENGINES[-1]
    for name in ("auto", "vector", "warp-drive"):
        with pytest.raises(ValueError):
            resolve_engine(name)
    _without_kernels(monkeypatch)
    assert resolve_engine(None) == "oracle"


def test_front_door_oracle_runs_the_lrustack_loop(monkeypatch):
    """``engine="oracle"``, and the default engine without a compiler,
    run the per-access LRUStack loop, never the compiled kernel."""

    def refuse(*args, **kwargs):
        raise AssertionError("the compiled engine ran for the oracle")

    _without_kernels(monkeypatch)
    monkeypatch.setattr(_native, "native_replay", refuse)
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
