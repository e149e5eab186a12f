"""Cache substrate tests: LRU stacks, stream replay through the front
door, the repartition transient, the private-hierarchy stall model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import PrivateHierarchyModel
from repro.cache.lru import LRUStack
from repro.cache.partition import RepartitionTransient
from repro.cache.replay import prewarm_tags, replay_access_stream
from repro.trace.stream import FRESH


def replay_warm(stream, n_sets, order=None):
    """Recencies of a stream replayed from the generator's warm-up."""
    recency, _ = replay_access_stream(
        stream.set_index, stream.tag, n_sets=n_sets, depth=16, order=order,
        initial=[prewarm_tags(s, 16) for s in range(n_sets)],
    )
    return recency


class TestLRUStack:
    def test_miss_then_hit_at_mru(self):
        s = LRUStack(4)
        assert s.access(1) == FRESH
        assert s.access(1) == 1

    def test_recency_positions(self):
        s = LRUStack(4)
        for tag in (1, 2, 3):
            s.access(tag)
        # stack: 3,2,1
        assert s.access(1) == 3
        assert s.access(3) == 2  # stack was 1,3,2

    def test_eviction_at_depth(self):
        s = LRUStack(2)
        s.access(1)
        s.access(2)
        s.access(3)  # evicts 1
        assert s.access(1) == FRESH

    def test_peek_does_not_touch(self):
        s = LRUStack(4)
        s.access(1)
        s.access(2)
        assert s.peek_recency(1) == 2
        assert s.peek_recency(1) == 2  # unchanged
        assert s.peek_recency(99) == FRESH

    def test_initial_contents(self):
        s = LRUStack(3, initial=[5, 6, 7])
        assert s.access(7) == 3

    def test_duplicate_initial_rejected(self):
        with pytest.raises(ValueError):
            LRUStack(3, initial=[1, 1])

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_stack_inclusion_property(self, accesses):
        """An access hitting at recency r hits every cache with >= r ways.

        Equivalent formulation: replaying the same trace through stacks of
        different depths never changes the recency of accesses that fit the
        smaller depth.
        """
        deep = LRUStack(16)
        shallow = LRUStack(4)
        for tag in accesses:
            r_deep = deep.access(tag)
            r_shallow = shallow.access(tag)
            if r_deep != FRESH and r_deep <= 4:
                assert r_shallow == r_deep
            else:
                assert r_shallow == FRESH


class TestSetAssociative:
    """Whole-stream replays through :func:`replay_access_stream` (the
    class keeps the name of the deleted set-associative wrapper so the
    cases keep their test IDs)."""

    def test_replay_program_order_matches_generated_recency(self, cs_trace, generator):
        """Replaying the generated addresses re-derives the ground truth."""
        recency = replay_warm(cs_trace.stream, generator.n_sets)
        assert np.array_equal(recency, cs_trace.stream.recency)

    def test_arrival_order_replay_close_but_not_identical(self, chain_trace, generator):
        stream = chain_trace.stream
        recency = replay_warm(stream, generator.n_sets, stream.in_arrival_order())
        diff = np.mean(recency != stream.recency)
        assert 0.0 < diff < 0.15  # reordering perturbs, but only locally

    def test_prewarm_tags_unique_per_set(self):
        tags = prewarm_tags(3, 16) + prewarm_tags(4, 16)
        assert len(set(tags)) == 32
        assert all(t < 0 for t in tags)

    def test_unwarmed_cache_cold_misses(self):
        recency, _ = replay_access_stream(
            np.zeros(2, np.int32), np.array([7, 7]), n_sets=2, depth=4
        )
        assert recency.tolist() == [FRESH, 1]


class TestRepartitionTransient:
    def test_lines_per_way_table1(self):
        assert RepartitionTransient().lines_per_way == 4096  # 256 KB / 64 B

    def test_extra_misses_symmetric_in_sign(self):
        t = RepartitionTransient()
        assert t.extra_misses(-3) == t.extra_misses(3)
        assert t.extra_misses(0) == 0.0

    def test_cost_scales_linearly(self):
        t = RepartitionTransient(occupancy=0.5, overlap=8.0)
        stall1, energy1 = t.cost(1, 100e-9, 20e-9)
        stall2, energy2 = t.cost(2, 100e-9, 20e-9)
        assert stall2 == pytest.approx(2 * stall1)
        assert energy2 == pytest.approx(2 * energy1)
        # one way: 4096 * 0.5 = 2048 refills
        assert energy1 == pytest.approx(2048 * 20e-9)
        assert stall1 == pytest.approx(2048 * 100e-9 / 8.0)

    def test_magnitude_small_vs_interval(self):
        """The transient must stay enforcement-overhead sized (Sec III-E)."""
        stall, _ = RepartitionTransient().cost(4, 100e-9, 20e-9)
        interval_s = 0.05  # ~100M instructions at 2 GHz
        assert stall / interval_s < 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            RepartitionTransient(occupancy=1.5)
        with pytest.raises(ValueError):
            RepartitionTransient(overlap=0.5)
        with pytest.raises(ValueError):
            RepartitionTransient().cost(1, -1.0, 0.0)


class TestHierarchy:
    def test_stall_curve_monotone_in_hits(self, cs_trace):
        model = PrivateHierarchyModel()
        curve = model.cache_stall_curve(cs_trace)
        # more ways -> more hits -> more (exposed) hit stalls
        assert np.all(np.diff(curve) >= -1e-9)

    def test_scalar_matches_curve(self, cs_trace):
        model = PrivateHierarchyModel()
        curve = model.cache_stall_curve(cs_trace)
        for w in (1, 8, 16):
            assert model.cache_stall_cycles(cs_trace, w) == pytest.approx(curve[w - 1])

    def test_invalid_ways(self, cs_trace):
        with pytest.raises(ValueError):
            PrivateHierarchyModel().cache_stall_cycles(cs_trace, 0)
