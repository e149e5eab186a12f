"""Online performance model tests (Eq. 1-2, Models 1/2/3, Perfect)."""

import numpy as np
import pytest

from repro.config import CoreSize, Setting
from repro.core.perf_models import (
    Model1,
    Model2,
    Model3,
    ModelInputs,
    PerfectModel,
)


def inputs_for(db, app, phase, setting, with_next=False):
    rec = db.record(app, phase)
    return ModelInputs(
        counters=rec.counters_at(setting),
        atd=rec.atd_report(),
        next_record=rec if with_next else None,
    )


class TestSharedSkeleton:
    def test_prediction_exact_at_current_setting_model3(self, mini_db, system2):
        """Same phase, same setting: Model3 reproduces the measured time.

        The effective-latency constant makes the memory term exact at the
        current setting up to the heuristic-vs-oracle LM ratio.
        """
        base = system2.baseline_setting()
        rec = mini_db.record("mini_csps", 0)
        inp = inputs_for(mini_db, "mini_csps", 0, base)
        pred = Model3().predict_time_at(inp, system2, base)
        assert pred == pytest.approx(rec.time_at(base), rel=0.08)

    def test_frequency_scaling_direction(self, mini_db, system2):
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_csps", 0, base)
        grid = Model3().predict_time_grid(inp, system2)
        assert np.all(np.diff(grid, axis=1) <= 1e-15)

    def test_memory_term_not_scaled_by_frequency(self, mini_db, system2):
        """At f -> max the prediction floors at the memory time."""
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_cips", 0, base)
        m3 = Model3()
        grid = m3.predict_time_grid(inp, system2)
        tmem = m3.memory_time_grid(inp, system2)
        assert np.all(grid[:, -1, :] > tmem - 1e-15)

    def test_baseline_prediction_is_grid_point(self, mini_db, system2):
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_csps", 0, base)
        m = Model2()
        grid = m.predict_time_grid(inp, system2)
        fi = system2.dvfs.index_of(base.f_ghz)
        assert m.predict_baseline_time(inp, system2) == pytest.approx(
            float(grid[int(base.core), fi, base.ways - 1])
        )


class TestModelDifferences:
    def test_model1_ignores_mlp(self, mini_db, system2):
        """Model1's memory time is misses x latency regardless of core."""
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_cips", 0, base)
        tmem = Model1().memory_time_grid(inp, system2)
        assert np.allclose(tmem[0], tmem[2])
        expected = inp.atd.miss_curve * system2.memory.base_latency_s
        assert np.allclose(tmem[1], expected)

    def test_model2_divides_by_current_mlp(self, mini_db, system2):
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_cips", 0, base)
        t1 = Model1().memory_time_grid(inp, system2)
        t2 = Model2().memory_time_grid(inp, system2)
        # Model2 uses measured effective latency; compare via the ratio of
        # predicted stall at the current allocation to the measured stall.
        assert np.all(t2 <= t1 + 1e-12)  # MLP >= 1
        assert np.allclose(t2[0], t2[2])  # still core-size blind

    def test_model2_exact_at_current_setting(self, mini_db, system2):
        """misses(w_i)/MLP_i x L_eff == measured memory time."""
        base = system2.baseline_setting()
        rec = mini_db.record("mini_cips", 0)
        counters = rec.counters_at(base)
        inp = ModelInputs(counters=counters, atd=rec.atd_report())
        t2 = Model2().memory_time_grid(inp, system2)
        ratio = inp.atd.miss_curve[7] / counters.misses_current
        assert t2[1, 7] == pytest.approx(counters.mem_time_s * ratio, rel=0.05)

    def test_model3_resolves_core_size(self, mini_db, system2):
        """Only Model3 predicts less stall on the larger core."""
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_cips", 0, base)  # PS app
        t3 = Model3().memory_time_grid(inp, system2)
        assert t3[2, 7] < 0.8 * t3[0, 7]

    def test_model3_tracks_oracle_across_sizes(self, mini_db, system2):
        base = system2.baseline_setting()
        rec = mini_db.record("mini_cips", 0)
        inp = inputs_for(mini_db, "mini_cips", 0, base)
        t3 = Model3().memory_time_grid(inp, system2)
        for c in range(3):
            assert t3[c, 7] == pytest.approx(rec.mem_time_grid[c, 7], rel=0.25)

    def test_perfect_model_is_exact(self, mini_db, system2):
        base = system2.baseline_setting()
        rec = mini_db.record("mini_csps", 0)
        inp = inputs_for(mini_db, "mini_csps", 0, base, with_next=True)
        grid = PerfectModel().predict_time_grid(inp, system2)
        assert np.array_equal(grid, rec.time_grid)

    def test_perfect_requires_next_record(self, mini_db, system2):
        base = system2.baseline_setting()
        inp = inputs_for(mini_db, "mini_csps", 0, base)
        with pytest.raises(ValueError):
            PerfectModel().predict_time_grid(inp, system2)


class TestStatsMirror:
    """The vectorised Eq.-1 mirror in analysis.stats must match the models."""

    @pytest.mark.parametrize("model_cls", [Model1, Model2, Model3])
    def test_prediction_matrix_matches_model_classes(
        self, mini_db, system2, model_cls
    ):
        from repro.analysis.stats import _flatten_settings, _prediction_matrix

        rec = mini_db.record("mini_csps", 0)
        pred, pred_base = _prediction_matrix(rec, system2, model_cls.name)
        cc, ff, ww = _flatten_settings(system2)
        freqs = system2.candidate_frequencies()
        model = model_cls()
        rng = np.random.default_rng(3)
        for k in rng.integers(0, cc.size, size=6):
            current = Setting(CoreSize(int(cc[k])), float(freqs[ff[k]]), int(ww[k]))
            inp = ModelInputs(counters=rec.counters_at(current), atd=rec.atd_report())
            grid = model.predict_time_grid(inp, system2)
            for j in rng.integers(0, cc.size, size=6):
                expected = grid[int(cc[j]), int(ff[j]), int(ww[j]) - 1]
                assert pred[k, j] == pytest.approx(float(expected), rel=1e-9)
            assert pred_base[k] == pytest.approx(
                model.predict_baseline_time(inp, system2), rel=1e-9
            )

    @pytest.mark.parametrize("model_name", ["Model1", "Model2", "Model3"])
    def test_restricted_targets_are_full_matrix_columns(
        self, mini_db, system2, model_name
    ):
        from repro.analysis.stats import _flatten_settings, _prediction_matrix

        n = _flatten_settings(system2)[0].size
        rng = np.random.default_rng(5)
        for app in mini_db.app_names():
            rec = mini_db.record(app, 0)
            full, full_base = _prediction_matrix(rec, system2, model_name)
            assert full.shape == (n, n)
            for targets in (
                np.sort(rng.choice(n, size=n // 3, replace=False)),
                np.array([n - 1, 0]),
                np.array([], dtype=np.int64),
            ):
                pred, base = _prediction_matrix(rec, system2, model_name, targets)
                assert pred.shape == (n, targets.size)
                assert pred.tobytes() == full[:, targets].tobytes()  # bit for bit
                assert base.tobytes() == full_base.tobytes()
