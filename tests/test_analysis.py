"""Analysis tests: trade-off matrix and the QoS-violation study."""

import numpy as np
import pytest

from repro.analysis.stats import (
    _flatten_settings,
    _prediction_matrix,
    qos_violation_study,
)
from repro.analysis.tradeoffs import tradeoff_matrix
from repro.workloads.categories import Category


def paper_counts():
    return {
        Category.CS_PS: 5,
        Category.CS_PI: 7,
        Category.CI_PS: 7,
        Category.CI_PI: 8,
    }


class TestTradeoffMatrix:
    def test_ten_cells(self):
        cells = tradeoff_matrix(paper_counts())
        assert len(cells) == 10

    def test_sorted_by_probability(self):
        cells = tradeoff_matrix(paper_counts())
        probs = [c.probability for c in cells]
        assert probs == sorted(probs, reverse=True)
        assert cells[0].label == "CI-PI x CI-PI"

    def test_rm3_extends_rm2_in_12_of_16_ordered_mixes(self):
        """The paper: RM3 is more effective in 12 of 16 (ordered) mixes.

        In unordered-cell terms: every cell except the four pure
        RM2-equivalent ones shows a different RM3 action.
        """
        cells = tradeoff_matrix(paper_counts())
        extended = [c for c in cells if c.rm3_helps_over_rm2]
        ordered_count = sum(2 if len(c.pair) == 2 else 1 for c in extended)
        assert ordered_count == 12

    def test_scenarios_assigned(self):
        cells = tradeoff_matrix(paper_counts())
        by_scenario = {}
        for c in cells:
            by_scenario.setdefault(c.scenario, []).append(c)
        assert len(by_scenario[1]) == 5
        assert len(by_scenario[2]) == 2
        assert len(by_scenario[3]) == 2
        assert len(by_scenario[4]) == 1


class TestQoSStudy:
    @pytest.fixture(scope="class")
    def studies(self, mini_db):
        return {
            m: qos_violation_study(mini_db, m)
            for m in ("Model1", "Model2", "Model3")
        }

    def test_probabilities_valid(self, studies):
        for r in studies.values():
            assert 0.0 <= r.probability <= 1.0
            assert r.expected_value >= 0.0
            assert r.std >= 0.0

    def test_model3_fewest_violations(self, studies):
        assert studies["Model3"].probability < studies["Model2"].probability
        assert studies["Model2"].probability < studies["Model1"].probability

    def test_model3_smaller_expected_violation(self, studies):
        assert (
            studies["Model3"].expected_value <= studies["Model2"].expected_value
        )

    def test_histogram_consistent(self, studies):
        for r in studies.values():
            total = float(r.histogram.counts.sum())
            # histogram mass (within binned range) cannot exceed the
            # weighted violation mass
            assert total <= r.weighted_violations + 1e-9

    def test_weighted_cases_is_app_count_normalised(self, studies):
        for r in studies.values():
            assert r.weighted_cases == pytest.approx(1.0)

    def test_custom_bins(self, mini_db):
        r = qos_violation_study(mini_db, "Model3", bins=[0.0, 0.1, 0.2])
        assert r.histogram.counts.shape == (2,)

    def test_app_subset(self, mini_db):
        r = qos_violation_study(mini_db, "Model2", apps=["mini_cips"])
        assert r.weighted_cases == pytest.approx(1.0)

    @pytest.mark.parametrize("model_name", ["Model1", "Model2", "Model3"])
    def test_matches_full_matrix_sweep(self, mini_db, studies, model_name):
        """Sweeping only the slower targets changes no bit of the result."""
        system = mini_db.system
        cc, ff, ww = _flatten_settings(system)
        base = system.baseline_setting()
        cb, fb = int(base.core), system.dvfs.index_of(base.f_ghz)
        names = mini_db.app_names()
        edges = np.arange(0.0, 0.525, 0.025)
        viol_w = sum_mag = sum_mag2 = 0.0
        hist = np.zeros(edges.size - 1)
        for name in names:
            weights = mini_db.apps[name].phase_weights()
            for rec, phase_w in zip(mini_db.records[name], weights):
                t_act = rec.time_grid[cc, ff, ww - 1]
                t_base = float(rec.time_grid[cb, fb, base.ways - 1])
                pred, pred_base = _prediction_matrix(rec, system, model_name)
                viol = (pred <= pred_base[:, None] * (1.0 + 1e-9)) & (
                    t_act[None, :] > t_base * (1.0 + 1e-9)
                )
                pair_w = 1.0 / len(names) * phase_w / viol.size
                mags = np.broadcast_to((t_act - t_base) / t_base, viol.shape)[viol]
                viol_w += pair_w * int(np.count_nonzero(viol))
                sum_mag += pair_w * float(mags.sum())
                sum_mag2 += pair_w * float((mags**2).sum())
                hist += np.histogram(mags, bins=edges)[0] * pair_w
        r = studies[model_name]
        ev = sum_mag / viol_w
        assert r.weighted_violations == viol_w
        assert r.expected_value == ev
        assert r.std == float(np.sqrt(max(sum_mag2 / viol_w - ev * ev, 0.0)))
        assert r.histogram.counts.tobytes() == hist.tobytes()

    def test_unknown_model_rejected(self, mini_db):
        with pytest.raises(ValueError):
            qos_violation_study(mini_db, "Model9")

    def test_normalised_histogram(self, studies):
        r = studies["Model1"]
        peak = max(float(s.histogram.counts.max()) for s in studies.values())
        if peak > 0:
            norm = r.histogram.normalised_to(peak)
            assert np.all(norm <= 1.0 + 1e-12)
        with pytest.raises(ValueError):
            r.histogram.normalised_to(0.0)
