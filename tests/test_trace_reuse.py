"""Reuse-profile tests: the knobs behind cache (in)sensitivity."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.trace.reuse import (
    MAX_RECENCY,
    ReuseProfile,
    cliff_profile,
    flat_profile,
    small_ws_profile,
    streaming_profile,
)
from repro.trace.stream import FRESH


class TestProfileValidation:
    def test_pmf_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ReuseProfile(tuple([0.5] + [0.0] * 16))

    def test_pmf_length(self):
        with pytest.raises(ValueError):
            ReuseProfile((1.0,))

    def test_pmf_nonnegative(self):
        bad = [0.0] * 17
        bad[0], bad[1] = 1.5, -0.5
        with pytest.raises(ValueError):
            ReuseProfile(tuple(bad))


class TestShapes:
    def test_small_ws_insensitive_beyond_ws(self):
        p = small_ws_profile(3, fresh_frac=0.05)
        curve = p.miss_curve()
        # identical misses for every allocation >= 3
        assert np.allclose(curve[2:], curve[2])
        assert curve[2] == pytest.approx(0.05)

    def test_streaming_mostly_misses_everywhere(self):
        p = streaming_profile(0.95)
        curve = p.miss_curve()
        assert curve[-1] >= 0.95
        assert curve[0] - curve[-1] < 0.06  # nearly flat

    def test_cliff_sensitive_across_center(self):
        p = cliff_profile(center=9.0, width=2.0, fresh_frac=0.1)
        curve = p.miss_curve()
        # Crossing the cliff from 4 to 12 ways removes most misses.
        assert curve[3] - curve[11] > 0.4

    def test_flat_profile_uniform(self):
        p = flat_profile(0.0)
        hist = p.as_array()
        assert np.allclose(hist[:16], 1.0 / 16)


class TestSampling:
    def test_sample_matches_pmf(self):
        rng = np.random.default_rng(0)
        p = cliff_profile(8.0, 2.0, 0.2)
        rec = p.sample_recencies(50_000, rng)
        frac_fresh = np.mean(rec == FRESH)
        assert frac_fresh == pytest.approx(0.2, abs=0.01)
        assert rec.min() >= 0 and rec.max() <= MAX_RECENCY

    def test_sample_deterministic_per_seed(self):
        p = flat_profile()
        a = p.sample_recencies(100, np.random.default_rng(1))
        b = p.sample_recencies(100, np.random.default_rng(1))
        assert np.array_equal(a, b)


@given(
    weights=st.lists(st.floats(0.0, 1.0), min_size=17, max_size=17).filter(
        lambda w: sum(w) > 1e-6
    )
)
def test_miss_curve_always_monotone_nonincreasing(weights):
    arr = np.array(weights)
    p = ReuseProfile(tuple(arr / arr.sum()))
    curve = p.miss_curve()
    assert np.all(np.diff(curve) <= 1e-12)
    assert 0.0 <= curve[-1] <= curve[0] <= 1.0


@given(ways=st.integers(1, 16))
def test_expected_miss_fraction_matches_curve(ways):
    p = cliff_profile(7.0, 3.0, 0.15)
    assert p.miss_curve()[ways - 1] == pytest.approx(p.expected_miss_fraction(ways))
