"""ATD tests: recency monitor, MLP counters (incl. the Fig. 4 worked
example) and the full directory."""

import numpy as np
import pytest

from repro.atd.atd import AuxiliaryTagDirectory
from repro.atd.mlp import DEFAULT_INDEX_WINDOW, MLPCounterArray
from repro.atd.monitor import RecencyMonitor
from repro.microarch.leading import leading_miss_matrix
from repro.trace.stream import FRESH


class TestRecencyMonitor:
    def test_miss_curve_formula(self):
        m = RecencyMonitor(max_ways=4)
        # hits at recency 1,2,2,4 plus 3 ATD misses
        for r in (1, 2, 2, 4):
            m.record(r)
        for _ in range(3):
            m.record(FRESH)
        curve = m.miss_curve()
        # misses(w) = hits at > w + ATD misses
        assert curve.tolist() == [6.0, 4.0, 4.0, 3.0]

    def test_record_many_equivalent(self):
        a, b = RecencyMonitor(16), RecencyMonitor(16)
        rec = np.array([0, 1, 5, 16, 0, 3], dtype=np.int16)
        for r in rec:
            a.record(int(r))
        b.record_many(rec)
        assert np.array_equal(a.miss_curve(), b.miss_curve())
        assert a.accesses == b.accesses

    def test_scaling(self):
        m = RecencyMonitor(4, scale=10.0)
        m.record(FRESH)
        assert m.miss_curve()[0] == 10.0

    def test_rejects_out_of_range(self):
        m = RecencyMonitor(4)
        with pytest.raises(ValueError):
            m.record(5)

    def test_curve_monotone(self):
        rng = np.random.default_rng(0)
        m = RecencyMonitor(16)
        m.record_many(rng.integers(0, 17, size=1000).astype(np.int16))
        assert np.all(np.diff(m.miss_curve()) <= 1e-9)


class TestFig4WorkedExample:
    """The paper's Fig. 4: four loads, S core counts 3 LMs, M core 2."""

    def _run(self, rob_sizes):
        counters = MLPCounterArray(rob_sizes=rob_sizes, max_ways=1)
        # Arrival order LD1(5), LD3(33), LD2(20), LD4(90); all miss at w.
        for inst in (5, 33, 20, 90):
            counters.observe(inst, predicted_miss_ways=1)
        return counters.snapshot().leading_misses[:, 0]

    def test_s_core_counts_three(self):
        assert self._run([64]) == [3.0]

    def test_m_core_counts_two(self):
        assert self._run([128]) == [2.0]

    def test_both_simultaneously(self):
        lm = self._run([64, 128])
        assert lm.tolist() == [3.0, 2.0]

    def test_decisions_match_paper_narrative(self):
        """LD3 overlaps, LD2 is flagged dependent via arrival inversion."""
        c = MLPCounterArray(rob_sizes=[64], max_ways=1)
        c.observe(5, 1)   # LD1: first LM
        assert c.snapshot().leading_misses[0, 0] == 1
        c.observe(33, 1)  # LD3: D=28 < 64 -> OV
        assert c.snapshot().leading_misses[0, 0] == 1
        c.observe(20, 1)  # LD2: D=15 < 28 (last OV) -> dependence -> LM
        assert c.snapshot().leading_misses[0, 0] == 2
        c.observe(90, 1)  # LD4: D=70 >= 64 -> LM
        assert c.snapshot().leading_misses[0, 0] == 3


class TestMLPCounterArray:
    def test_prefix_semantics(self):
        """An access missing at w=3 updates counters for w=1..3 only."""
        c = MLPCounterArray(rob_sizes=[64], max_ways=8)
        c.observe(10, predicted_miss_ways=3)
        miss = c.snapshot().total_misses
        assert miss.tolist() == [1, 1, 1, 0, 0, 0, 0, 0]

    def test_index_wraparound(self):
        """Wrapped indices still measure forward distances correctly."""
        window = DEFAULT_INDEX_WINDOW
        c = MLPCounterArray(rob_sizes=[64], max_ways=1, index_window=window)
        c.observe(window - 10, 1)  # LM near the wrap point
        c.observe(window + 10, 1)  # 20 instructions later, wrapped
        assert c.snapshot().leading_misses[0, 0] == 1  # overlapped

    def test_reset(self):
        c = MLPCounterArray(rob_sizes=[64], max_ways=2)
        c.observe(5, 2)
        c.reset()
        assert c.snapshot().total_misses.sum() == 0

    def test_counter_saturation(self):
        c = MLPCounterArray(rob_sizes=[64], max_ways=1, counter_bits=2)
        for i in range(10):
            c.observe(i * 1000 % DEFAULT_INDEX_WINDOW, 1)
        assert c.snapshot().leading_misses[0, 0] <= 3  # 2-bit saturating

    def test_storage_budget_under_300_bytes(self):
        """Section III-E: < 300 bytes per core for the full counter array."""
        c = MLPCounterArray()
        assert c.storage_bits / 8 < 300

    def test_mlp_estimate(self):
        c = MLPCounterArray(rob_sizes=[64], max_ways=1)
        for inst in (0, 10, 20, 30):
            c.observe(inst, 1)
        est = c.snapshot()
        assert est.total_misses[0] == 4
        assert est.leading_misses[0, 0] == 1
        assert est.mlp()[0, 0] == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MLPCounterArray(rob_sizes=[])
        with pytest.raises(ValueError):
            MLPCounterArray(rob_sizes=[64], index_window=32)

    def test_tight_index_window_aliases(self):
        """A 1x-ROB window can never split groups by distance (the
        degenerate end of the sensitivity sweep)."""
        c = MLPCounterArray(rob_sizes=[64], max_ways=1, index_window=64)
        for inst in (0, 100, 900, 5000):  # far apart in reality
            c.observe(inst, 1)
        # every distance aliases below the ROB -> one giant overlap group
        assert c.snapshot().leading_misses[0, 0] <= 2


class TestAuxiliaryTagDirectory:
    def test_report_tracks_ground_truth_misses(self, cs_trace, generator):
        atd = AuxiliaryTagDirectory(generator.n_sets)
        report = atd.process(cs_trace.stream)
        truth = cs_trace.stream.miss_counts().astype(float)
        # arrival-order replay perturbs recencies only slightly
        err = np.abs(report.miss_curve - truth) / np.maximum(truth, 1)
        assert np.all(err < 0.12)

    def test_heuristic_lm_close_to_oracle_for_bursty(self, streaming_trace, generator):
        atd = AuxiliaryTagDirectory(generator.n_sets)
        report = atd.process(streaming_trace.stream)
        oracle = leading_miss_matrix(streaming_trace.stream)
        ratio = report.mlp.leading_misses / np.maximum(oracle, 1)
        assert np.all(ratio[:, 7] > 0.8) and np.all(ratio[:, 7] < 1.3)

    def test_set_sampling_scales_counts(self, cs_trace, generator):
        full = AuxiliaryTagDirectory(generator.n_sets, set_sample=1)
        sampled = AuxiliaryTagDirectory(generator.n_sets, set_sample=4)
        r_full = full.process(cs_trace.stream)
        r_sampled = sampled.process(cs_trace.stream)
        rel = abs(r_sampled.accesses - r_full.accesses) / r_full.accesses
        assert rel < 0.15
        err = np.abs(r_sampled.miss_curve - r_full.miss_curve)
        assert np.mean(err / np.maximum(r_full.miss_curve, 1)) < 0.25

    def test_scale_applied(self, cs_trace, generator):
        atd = AuxiliaryTagDirectory(generator.n_sets)
        r1 = atd.process(cs_trace.stream, scale=1.0)
        atd2 = AuxiliaryTagDirectory(generator.n_sets)
        r2 = atd2.process(cs_trace.stream, scale=2.0)
        assert np.allclose(r2.miss_curve, 2.0 * r1.miss_curve)
        assert np.allclose(r2.mlp.leading_misses, 2.0 * r1.mlp.leading_misses)

    def test_invalid_sampling(self):
        with pytest.raises(ValueError):
            AuxiliaryTagDirectory(8, set_sample=0)

    def test_invalid_geometry(self):
        for n_sets, max_ways in ((0, 16), (8, 0)):
            with pytest.raises(ValueError):
                AuxiliaryTagDirectory(n_sets, max_ways=max_ways)

    def test_each_process_replays_afresh(self, cs_trace, chain_trace, generator):
        """A second stream is not replayed from the first one's end state:
        it reports what a fresh directory reports."""
        atd = AuxiliaryTagDirectory(generator.n_sets)
        atd.process(cs_trace.stream)
        again = atd.process(chain_trace.stream)
        fresh = AuxiliaryTagDirectory(generator.n_sets).process(chain_trace.stream)
        assert again.fingerprint == fresh.fingerprint
