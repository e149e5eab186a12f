"""Validation-focused tests: PhaseSpec/AppSpec contracts, AccessStream
invariants, and simulator regression cases."""

import numpy as np
import pytest

from repro.config import CoreSize
from repro.trace.reuse import cliff_profile
from repro.trace.spec import AppSpec, PhaseSpec, uniform_ipc
from repro.trace.stream import AccessStream

from conftest import make_phase


class TestPhaseSpecValidation:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            make_phase(chain=1.5)
        with pytest.raises(ValueError):
            make_phase(intra=-0.1)

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            make_phase(apki=0.0)
        with pytest.raises(ValueError):
            make_phase(burst=0.0)

    def test_rejects_decreasing_ipc(self):
        with pytest.raises(ValueError):
            make_phase(ipc=uniform_ipc(1.5, 1.2, 1.8))

    def test_rejects_negative_stall_terms(self):
        with pytest.raises(ValueError):
            make_phase(branch_mpki=-1.0)

    def test_mean_access_gap(self):
        assert make_phase(apki=25.0).mean_access_gap == pytest.approx(40.0)


class TestAppSpecValidation:
    def _phases(self):
        return (
            make_phase("a", cliff_profile(8, 2, 0.1)),
            make_phase("b", cliff_profile(6, 2, 0.1)),
        )

    def test_pattern_indices_checked(self):
        with pytest.raises(ValueError):
            AppSpec("x", self._phases(), phase_pattern=(0, 2), n_intervals=4)

    def test_unique_phase_names(self):
        p = make_phase("same")
        with pytest.raises(ValueError):
            AppSpec("x", (p, p), phase_pattern=(0, 1), n_intervals=4)

    def test_phase_sequence_wraps(self):
        app = AppSpec("x", self._phases(), phase_pattern=(0, 1, 1), n_intervals=7)
        assert app.phase_sequence() == (0, 1, 1, 0, 1, 1, 0)

    def test_phase_weights(self):
        app = AppSpec("x", self._phases(), phase_pattern=(0, 1, 1), n_intervals=6)
        w = app.phase_weights()
        assert w == pytest.approx((1 / 3, 2 / 3))

    def test_negative_interval_rejected(self):
        app = AppSpec("x", self._phases(), phase_pattern=(0,), n_intervals=4)
        with pytest.raises(ValueError):
            app.phase_of_interval(-1)


class TestAccessStreamValidation:
    def _arrays(self, n=4):
        return dict(
            inst_index=np.arange(1, n + 1, dtype=np.int64) * 10,
            set_index=np.zeros(n, dtype=np.int32),
            tag=np.arange(n, dtype=np.int64),
            recency=np.zeros(n, dtype=np.int16),
            dep_prev=np.full(n, -1, dtype=np.int64),
            arrival_order=np.arange(n, dtype=np.int64),
            n_instructions=100,
        )

    def test_valid_stream(self):
        s = AccessStream(**self._arrays())
        assert len(s) == 4

    def test_nonmonotone_inst_rejected(self):
        a = self._arrays()
        a["inst_index"] = np.array([10, 5, 20, 30], dtype=np.int64)
        with pytest.raises(ValueError):
            AccessStream(**a)

    def test_bad_permutation_rejected(self):
        a = self._arrays()
        a["arrival_order"] = np.array([0, 0, 1, 2], dtype=np.int64)
        with pytest.raises(ValueError):
            AccessStream(**a)

    def test_forward_dependence_rejected(self):
        a = self._arrays()
        a["dep_prev"] = np.array([-1, 3, -1, -1], dtype=np.int64)
        with pytest.raises(ValueError):
            AccessStream(**a)

    def test_length_mismatch_rejected(self):
        a = self._arrays()
        a["tag"] = a["tag"][:-1]
        with pytest.raises(ValueError):
            AccessStream(**a)

    def test_short_n_instructions_rejected(self):
        a = self._arrays()
        a["n_instructions"] = 5
        with pytest.raises(ValueError):
            AccessStream(**a)


class TestSimulatorRegressions:
    def test_long_run_float_drift(self, mini_db, system2):
        """Regression: instr_done overshoot must never produce negative
        remaining work (crashed full-scale fig6 runs)."""
        from repro.core.managers import make_rm
        from repro.core.perf_models import Model3
        from repro.simulator.rmsim import MulticoreRMSimulator

        sim = MulticoreRMSimulator(mini_db, make_rm("rm3", system2, Model3()))
        res = sim.run(["mini_csps", "mini_cips"], horizon_intervals=30)
        assert res.t_end_s > 0

    def test_switch_hysteresis_damps_repartitions(self, mini_db, system2):
        from repro.core.managers import make_rm
        from repro.core.perf_models import Model3
        from repro.simulator.rmsim import MulticoreRMSimulator

        def switches(threshold):
            rm = make_rm("rm3", system2, Model3())
            rm.switch_threshold = threshold
            sim = MulticoreRMSimulator(mini_db, rm, collect_history=True)
            res = sim.run(["mini_csps", "mini_csps"], horizon_intervals=12)
            return sum(1 for _ in res.history or [])

        assert switches(0.5) <= switches(0.0)
