"""Ground-truth core model tests: leading misses and the interval model."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import _native
from repro.config import CoreSize, default_system
from repro.microarch.interval_model import IntervalModel, solve_contention_time
from repro.microarch.leading import count_leading_misses, leading_miss_matrix
from repro.trace.stream import AccessStream


def _refuse(*args, **kwargs):
    raise AssertionError("the compiled leading_lanes ran on the fallback path")


def make_stream(inst, recency, dep=None, arrival=None, n_sets=4):
    inst = np.asarray(inst, dtype=np.int64)
    n = len(inst)
    recency = np.asarray(recency, dtype=np.int16)
    dep = np.asarray(dep if dep is not None else [-1] * n, dtype=np.int64)
    if arrival is None:
        arrival = np.arange(n)
    return AccessStream(
        inst_index=inst,
        set_index=np.zeros(n, dtype=np.int32),
        tag=np.arange(n, dtype=np.int64),
        recency=recency,
        dep_prev=dep,
        arrival_order=np.asarray(arrival, dtype=np.int64),
        n_instructions=int(inst[-1]) + 1 if n else 0,
    )


def every_cell(stream, rob_sizes, max_ways):
    """The reference oracle on every (ROB, allocation) cell."""
    return [
        [count_leading_misses(stream, rob, w) for w in range(1, max_ways + 1)]
        for rob in rob_sizes
    ]


class TestLeadingMisses:
    def test_single_group_overlaps(self):
        """Independent misses inside one window form one group."""
        s = make_stream([0, 10, 20, 30], [0, 0, 0, 0])
        assert count_leading_misses(s, rob=64, ways=8) == 1

    def test_window_split(self):
        s = make_stream([0, 10, 100, 110], [0, 0, 0, 0])
        assert count_leading_misses(s, rob=64, ways=8) == 2

    def test_dependence_serialises(self):
        """A miss depending on the current LM starts a new group."""
        s = make_stream([0, 10, 20], [0, 0, 0], dep=[-1, 0, 1])
        assert count_leading_misses(s, rob=256, ways=8) == 3

    def test_dependence_on_hit_does_not_serialise(self):
        # producer at recency 2 hits for ways >= 2 -> consumer overlaps
        s = make_stream([0, 10, 20], [0, 2, 0], dep=[-1, 0, 1])
        assert count_leading_misses(s, rob=256, ways=8) == 1

    def test_hits_do_not_count(self):
        s = make_stream([0, 10], [1, 2])
        assert count_leading_misses(s, rob=64, ways=8) == 0

    def test_matrix_matches_reference(self, cs_trace):
        assert leading_miss_matrix(cs_trace.stream).tolist() == every_cell(
            cs_trace.stream, (64, 128, 256), 16
        )

    def test_matrix_matches_reference_chain(self, chain_trace):
        assert leading_miss_matrix(chain_trace.stream).tolist() == every_cell(
            chain_trace.stream, (64, 128, 256), 16
        )

    @given(
        steps=st.lists(
            st.tuples(
                # instruction gap: inside, at and past each ROB size
                st.integers(1, 40)
                | st.sampled_from([63, 64, 65, 127, 128, 129, 255, 256, 257]),
                st.integers(0, 18),  # recency: 0 is FRESH, >= 17 misses at 16
                st.integers(0, 6),  # dependence distance back; 0: none
            ),
            min_size=1,
            max_size=60,
        ),
        rob_sizes=st.lists(
            st.sampled_from([1, 32, 64, 128, 256]), min_size=1, max_size=4
        ),
        max_ways=st.integers(1, 16),
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_matrix_matches_reference_generated(self, steps, rob_sizes, max_ways):
        """On the compiled lanes (when available) and on the fallback."""
        gaps, recency, back = zip(*steps)
        dep = [k - b if 0 < b <= k else -1 for k, b in enumerate(back)]
        s = make_stream(np.cumsum(gaps), recency, dep)
        expected = every_cell(s, rob_sizes, max_ways)
        assert leading_miss_matrix(s, rob_sizes, max_ways).tolist() == expected
        with mock.patch.multiple(
            _native, available=lambda: False, leading_lanes=_refuse
        ):
            assert leading_miss_matrix(s, rob_sizes, max_ways).tolist() == expected

    def test_lm_decreases_with_window(self, cs_trace):
        matrix = leading_miss_matrix(cs_trace.stream)
        assert np.all(matrix[0] >= matrix[1])
        assert np.all(matrix[1] >= matrix[2])

    def test_lm_bounded_by_misses(self, cs_trace):
        matrix = leading_miss_matrix(cs_trace.stream)
        misses = cs_trace.stream.miss_counts()
        assert np.all(matrix <= misses[None, :])
        assert np.all(matrix >= 0)

    def test_chains_pin_mlp_near_one(self, chain_trace):
        matrix = leading_miss_matrix(chain_trace.stream)
        misses = chain_trace.stream.miss_counts().astype(float)
        mlp_l = misses[7] / max(matrix[2, 7], 1)
        assert mlp_l < 2.0

    def test_validation(self, cs_trace):
        with pytest.raises(ValueError):
            count_leading_misses(cs_trace.stream, rob=0, ways=8)
        with pytest.raises(ValueError):
            leading_miss_matrix(cs_trace.stream, rob_sizes=[])

    @given(
        gaps=st.lists(st.integers(1, 120), min_size=1, max_size=60),
        rob_small=st.sampled_from([32, 64]),
    )
    @settings(max_examples=40)
    def test_lm_monotone_in_rob_property(self, gaps, rob_small):
        inst = np.cumsum(gaps)
        rec = np.zeros(len(inst), dtype=np.int16)  # all miss
        s = make_stream(inst, rec)
        lm_small = count_leading_misses(s, rob_small, 8)
        lm_big = count_leading_misses(s, rob_small * 4, 8)
        assert lm_big <= lm_small
        assert 1 <= lm_big <= len(inst)


class TestContention:
    def test_fixed_point_is_consistent(self):
        """The solved time satisfies its own equation."""
        t = solve_contention_time(0.02, 0.03, 200e6 * 64, 5e9)
        rho = min(200e6 * 64 / (5e9 * t), 0.95)
        rhs = 0.02 + 0.03 * (1 + 0.3 * rho * rho / (1 - rho))
        assert float(t) == pytest.approx(float(rhs), rel=1e-9)

    def test_fixed_point_unique_near_knee(self):
        """Heavy traffic near the knee: bisection must not oscillate."""
        t1 = solve_contention_time(0.01, 0.04, 3.5e6 * 64, 5e9)
        t2 = solve_contention_time(0.010000001, 0.04, 3.5e6 * 64, 5e9)
        assert abs(t1 - t2) < 1e-6  # continuity

    def test_no_contention_below_bandwidth(self):
        t = solve_contention_time(0.05, 0.01, 1e4 * 64, 5e9)
        assert float(t) == pytest.approx(0.06, rel=1e-3)

    @given(
        compute=st.floats(1e-4, 0.5),
        mem=st.floats(0.0, 0.5),
        miss_mb=st.floats(0.0, 1000.0),
    )
    @settings(max_examples=80)
    def test_fixed_point_properties(self, compute, mem, miss_mb):
        t = float(solve_contention_time(compute, mem, miss_mb * 1e6, 5e9))
        worst = 1 + 0.3 * 0.95**2 / 0.05
        assert compute + mem - 1e-12 <= t <= compute + mem * worst + 1e-12


class TestIntervalModel:
    def test_time_monotone_in_frequency(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        assert np.all(np.diff(rec.time_grid, axis=1) <= 1e-12)

    def test_time_monotone_in_ways_mem_side(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        # memory stall time never increases with more ways
        assert np.all(np.diff(rec.mem_time_grid, axis=1) <= 1e-9)

    def test_bigger_core_never_slower(self, mini_db):
        rec = mini_db.record("mini_csps", 0)
        assert np.all(np.diff(rec.time_grid, axis=0) <= 1e-12)

    def test_scalar_grid_agreement(self, system2, cs_trace):
        from repro.cache.hierarchy import PrivateHierarchyModel

        model = IntervalModel(system2)
        hier = PrivateHierarchyModel()
        lm = leading_miss_matrix(cs_trace.stream) * cs_trace.sample_scale
        misses = cs_trace.nominal_miss_curve()
        stall = hier.cache_stall_curve(cs_trace)
        n = float(system2.scale.interval_instructions)
        freqs = np.array(system2.candidate_frequencies())
        grid = model.time_grid(
            n_instructions=n,
            ipc_by_size=np.array([1.2, 1.7, 2.2]),
            branch_cycles=1.4e6,
            cache_stall_curve=stall,
            lm_matrix=lm,
            miss_curve=misses,
            frequencies_ghz=freqs,
        )
        t = model.time_s(
            core=CoreSize.M,
            f_ghz=2.0,
            n_instructions=n,
            ipc=1.7,
            branch_cycles=1.4e6,
            cache_stall_cycles=float(stall[7]),
            leading_misses=float(lm[1, 7]),
            total_misses=float(misses[7]),
        )
        fi = int(np.argmin(np.abs(freqs - 2.0)))
        assert t == pytest.approx(float(grid[1, fi, 7]), rel=1e-9)

    def test_contention_off_is_linear(self, system2):
        model = IntervalModel(system2, contention=False)
        t = model.time_s(
            core=CoreSize.M, f_ghz=2.0, n_instructions=1e8, ipc=2.0,
            branch_cycles=0.0, cache_stall_cycles=0.0,
            leading_misses=1e5, total_misses=1e6,
        )
        assert t == pytest.approx(1e8 / 2.0 / 2e9 + 1e5 * 100e-9)

    def test_validation(self, system2):
        model = IntervalModel(system2)
        with pytest.raises(ValueError):
            model.time_s(
                core=CoreSize.M, f_ghz=0.0, n_instructions=1e8, ipc=2.0,
                branch_cycles=0, cache_stall_cycles=0,
                leading_misses=0, total_misses=0,
            )
