"""Energy model (Eq. 4-5) and QoS predicate (Eq. 3/6) tests."""

import numpy as np
import pytest

from repro.config import CoreSize, DVFSConfig, MemoryConfig, PowerConfig
from repro.core.energy_model import OnlineEnergyModel
from repro.core.perf_models import Model3, ModelInputs
from repro.core.qos import QoSPolicy
from repro.power.model import PowerModel


@pytest.fixture(scope="module")
def energy_model():
    return OnlineEnergyModel(PowerModel(PowerConfig(), DVFSConfig(), MemoryConfig()))


def model_inputs(db, app, phase, setting):
    rec = db.record(app, phase)
    return ModelInputs(counters=rec.counters_at(setting), atd=rec.atd_report())


class TestOnlineEnergyModel:
    def test_close_to_ground_truth_at_current(self, mini_db, system2, energy_model):
        base = system2.baseline_setting()
        rec = mini_db.record("mini_csps", 0)
        inp = model_inputs(mini_db, "mini_csps", 0, base)
        tgrid = Model3().predict_time_grid(inp, system2)
        egrid = energy_model.predict_energy_grid(inp, tgrid, system2)
        fi = system2.dvfs.index_of(base.f_ghz)
        assert egrid[1, fi, 7] == pytest.approx(rec.energy_at(base), rel=0.08)

    def test_voltage_scaling_of_dynamic_term(self, mini_db, system2, energy_model):
        base = system2.baseline_setting()
        inp = model_inputs(mini_db, "mini_cipi", 0, base)
        tgrid = np.full((3, 10, 16), 0.05)  # fixed predicted time
        egrid = energy_model.predict_energy_grid(inp, tgrid, system2)
        freqs = system2.candidate_frequencies()
        v = np.array([system2.dvfs.voltage(f) for f in freqs])
        # strip the (known) static term to isolate dynamic + memory
        static = np.array(
            [energy_model.power.static_power_w(CoreSize.M, vi) * 0.05 for vi in v]
        )
        dyn_mem = egrid[1, :, 7] - static
        dyn = dyn_mem - dyn_mem[0]  # memory term cancels (same w)
        expected = dyn[-1] * (v**2 - v[0] ** 2) / (v[-1] ** 2 - v[0] ** 2)
        assert np.allclose(dyn, expected, rtol=1e-9, atol=1e-12)

    def test_eq5_memory_delta(self, mini_db, system2, energy_model):
        """E_mem(w) - E_mem(w_i) == DM(w) x e_mem."""
        base = system2.baseline_setting()
        rec = mini_db.record("mini_csps", 0)
        inp = model_inputs(mini_db, "mini_csps", 0, base)
        tgrid = np.full((3, 10, 16), 0.05)
        egrid = energy_model.predict_energy_grid(inp, tgrid, system2)
        dm = inp.atd.miss_curve[15] - inp.atd.miss_curve[7]
        delta = egrid[1, 4, 15] - egrid[1, 4, 7]
        assert delta == pytest.approx(dm * 20e-9, rel=1e-6)

    def test_static_term_uses_predicted_time(self, mini_db, system2, energy_model):
        base = system2.baseline_setting()
        inp = model_inputs(mini_db, "mini_cipi", 0, base)
        t1 = np.full((3, 10, 16), 0.05)
        t2 = np.full((3, 10, 16), 0.10)
        e1 = energy_model.predict_energy_grid(inp, t1, system2)
        e2 = energy_model.predict_energy_grid(inp, t2, system2)
        static_w = energy_model.power.static_power_w(CoreSize.M, 1.0)
        assert e2[1, 4, 7] - e1[1, 4, 7] == pytest.approx(static_w * 0.05, rel=1e-6)

    def test_shape_mismatch_rejected(self, mini_db, system2, energy_model):
        base = system2.baseline_setting()
        inp = model_inputs(mini_db, "mini_csps", 0, base)
        with pytest.raises(ValueError):
            energy_model.predict_energy_grid(inp, np.zeros((2, 10, 16)), system2)


class TestQoS:
    def test_alpha_one_strict(self):
        q = QoSPolicy(1.0)
        assert q.feasible(1.0, 1.0)
        assert q.feasible(0.99, 1.0)
        assert not q.feasible(1.01, 1.0)

    def test_alpha_relaxation(self):
        q = QoSPolicy(1.1)
        assert q.feasible(1.05, 1.0)
        assert not q.feasible(1.2, 1.0)

    def test_mask(self):
        q = QoSPolicy(1.0)
        grid = np.array([[0.9, 1.0, 1.1]])
        mask = q.feasible_mask(grid, 1.0)
        assert mask.tolist() == [[True, True, False]]

    def test_float_noise_tolerated(self):
        q = QoSPolicy(1.0)
        assert q.feasible(1.0 + 1e-12, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSPolicy(0.0)
        with pytest.raises(ValueError):
            QoSPolicy(1.0).feasible_mask(np.ones(3), 0.0)
