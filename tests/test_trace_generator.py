"""Trace generator tests: the synthetic stream must realise its spec."""

import numpy as np
import pytest

from repro.config import ScaleConfig
from repro.trace.generator import PhaseTraceGenerator, STACK_DEPTH, TRACE_SETS
from repro.trace.reuse import cliff_profile, streaming_profile
from repro.trace.spec import uniform_ipc
from repro.trace.stream import FRESH

from conftest import make_phase, small_scale


@pytest.fixture(scope="module")
def gen():
    return PhaseTraceGenerator(small_scale())


class TestDeterminism:
    def test_same_seed_same_trace(self, gen, cs_phase):
        a = gen.generate(cs_phase, seed=5)
        b = gen.generate(cs_phase, seed=5)
        assert np.array_equal(a.stream.inst_index, b.stream.inst_index)
        assert np.array_equal(a.stream.tag, b.stream.tag)
        assert np.array_equal(a.stream.arrival_order, b.stream.arrival_order)

    def test_different_seed_different_trace(self, gen, cs_phase):
        a = gen.generate(cs_phase, seed=5)
        b = gen.generate(cs_phase, seed=6)
        assert not np.array_equal(a.stream.tag, b.stream.tag)


class TestStreamStructure:
    def test_program_order_strict(self, cs_trace):
        assert np.all(np.diff(cs_trace.stream.inst_index) > 0)

    def test_arrival_is_permutation(self, cs_trace):
        order = np.sort(cs_trace.stream.arrival_order)
        assert np.array_equal(order, np.arange(len(cs_trace.stream)))

    def test_dependences_point_backwards(self, chain_trace):
        dep = chain_trace.stream.dep_prev
        idx = np.arange(len(dep))
        mask = dep != -1
        assert np.all(dep[mask] < idx[mask])
        assert mask.mean() > 0.5  # chain_frac=0.8 phase

    def test_sets_in_range(self, cs_trace):
        s = cs_trace.stream.set_index
        assert s.min() >= 0 and s.max() < TRACE_SETS


class TestRecencyRealisation:
    def test_realised_recency_matches_profile(self, gen):
        """The realised recency histogram must track the requested pmf."""
        phase = make_phase("t", cliff_profile(9.0, 2.0, 0.2), apki=20.0)
        trace = gen.generate(phase, seed=11)
        rec = trace.stream.recency
        fresh_frac = np.mean(rec == FRESH)
        assert fresh_frac == pytest.approx(0.2, abs=0.05)
        hits = rec[rec != FRESH]
        assert abs(hits.mean() - 9.0) < 1.0  # cliff centre

    def test_miss_counts_nested(self, cs_trace):
        counts = cs_trace.stream.miss_counts()
        assert np.all(np.diff(counts) <= 0)
        assert counts[0] <= len(cs_trace.stream)

    def test_misses_at_consistent_with_counts(self, cs_trace):
        for w in (1, 4, 8, 16):
            assert cs_trace.stream.misses_at(w).sum() == cs_trace.stream.miss_counts()[w - 1]

    def test_streaming_flat_curve(self, streaming_trace):
        counts = streaming_trace.stream.miss_counts()
        n = len(streaming_trace.stream)
        assert counts[-1] / n > 0.9
        assert (counts[0] - counts[-1]) / n < 0.1


class TestInstructionGeometry:
    def test_mean_gap_matches_apki(self, gen):
        phase = make_phase("g", apki=25.0)
        trace = gen.generate(phase, seed=3)
        span = trace.stream.inst_index[-1] - trace.stream.inst_index[0]
        mean_gap = span / (len(trace.stream) - 1)
        assert mean_gap == pytest.approx(1000.0 / 25.0, rel=0.15)

    def test_burst_structure_visible(self, gen):
        phase = make_phase("b", burst=10.0, intra=0.1, apki=20.0)
        trace = gen.generate(phase, seed=3)
        gaps = np.diff(trace.stream.inst_index)
        # Bimodal gaps: many small (intra) and some large (inter).
        small = np.mean(gaps <= 0.3 * gaps.mean())
        assert small > 0.5


class TestArrivalEmulation:
    def test_independent_stream_arrives_in_order(self, gen):
        phase = make_phase("ind", chain=0.0)
        trace = gen.generate(phase, seed=9)
        assert np.array_equal(
            trace.stream.arrival_order, np.arange(len(trace.stream))
        )

    def test_dependent_accesses_arrive_late(self, gen):
        phase = make_phase("dep", chain=0.5)
        trace = gen.generate(phase, seed=9)
        dep = trace.stream.dep_prev != -1
        order = trace.stream.arrival_order
        displacement = order - np.arange(len(order))
        assert displacement[dep].mean() > 0
        # independent accesses move earlier or stay
        assert displacement[~dep].mean() <= 0


class TestScaling:
    def test_sample_scale(self, gen):
        phase = make_phase("s", apki=10.0)
        trace = gen.generate(phase, seed=1)
        nominal = gen.scale.interval_instructions * 10.0 / 1000.0
        assert trace.nominal_accesses == pytest.approx(nominal, rel=1e-6)


class TestBurstChain:
    def test_burst_chain_adds_lead_dependences(self, gen):
        base = make_phase("bc", streaming_profile(0.95), chain=0.0, burst=8.0,
                          intra=0.05)
        chained = make_phase(
            "bc2", streaming_profile(0.95), chain=0.0, burst=8.0, intra=0.05,
            burst_chain=True,
        )
        t0 = gen.generate(base, seed=2)
        t1 = gen.generate(chained, seed=2)
        assert (t0.stream.dep_prev != -1).sum() == 0
        assert (t1.stream.dep_prev != -1).sum() > len(t1.stream) / 20

    def test_validation(self):
        with pytest.raises(ValueError):
            PhaseTraceGenerator(ScaleConfig(), n_sets=0)


def test_stack_depth_covers_max_recency():
    assert STACK_DEPTH == 16


def test_ipc_cannot_exceed_issue_width():
    with pytest.raises(ValueError):
        make_phase("bad", ipc=uniform_ipc(2.5, 3.0, 4.0))  # S width is 2
