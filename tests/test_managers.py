"""Resource manager tests: decide loop, budget invariants, registry."""

import pytest

from repro.config import CoreSize
from repro.core.managers import RM1, RM2, RM3, IdleRM, make_rm
from repro.core.overheads import PAPER_RM_INSTRUCTIONS, RMCostModel
from repro.core.perf_models import Model3, ModelInputs


def observe(rm, db, core_id, app, phase, setting):
    rec = db.record(app, phase)
    inputs = ModelInputs(counters=rec.counters_at(setting), atd=rec.atd_report())
    return rm.observe(core_id, inputs)


class TestManagers:
    def test_idle_always_baseline(self, mini_db, system2):
        rm = IdleRM(system2)
        base = system2.baseline_setting()
        decision = observe(rm, mini_db, 0, "mini_csps", 0, base)
        assert all(s == base for s in decision.settings.values())
        assert decision.local_evaluations == 0

    def test_budget_always_exact(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        for core, app in enumerate(["mini_csps", "mini_cips"]):
            decision = observe(rm, mini_db, core, app, 0, base)
            total = sum(s.ways for s in decision.settings.values())
            assert total == system2.total_ways

    def test_unobserved_cores_pinned_at_baseline_ways(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        decision = observe(rm, mini_db, 0, "mini_csps", 0, base)
        assert decision.settings[1].ways == base.ways
        assert decision.settings[1].core is base.core

    def test_rm1_never_moves_c_or_f(self, mini_db, system2):
        rm = RM1(system2, Model3())
        base = system2.baseline_setting()
        for core, app in enumerate(["mini_csps", "mini_cips"]):
            decision = observe(rm, mini_db, core, app, 0, base)
        for s in decision.settings.values():
            assert s.core is CoreSize.M and s.f_ghz == base.f_ghz

    def test_rm2_never_moves_c(self, mini_db, system2):
        rm = RM2(system2, Model3())
        base = system2.baseline_setting()
        for core, app in enumerate(["mini_csps", "mini_cips"]):
            decision = observe(rm, mini_db, core, app, 0, base)
        assert all(s.core is CoreSize.M for s in decision.settings.values())

    def test_rm3_uses_core_adaptation(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        decision = observe(rm, mini_db, 0, "mini_cips", 0, base)
        decision = observe(rm, mini_db, 1, "mini_cips", 0, base)
        cores = {s.core for s in decision.settings.values()}
        assert cores != {CoreSize.M}  # PS streaming apps upsize

    def test_reset_clears_state(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        observe(rm, mini_db, 0, "mini_csps", 0, base)
        rm.reset()
        decision = observe(rm, mini_db, 1, "mini_cips", 0, base)
        # core 0 is unobserved again -> pinned
        assert decision.settings[0].ways == base.ways

    def test_unknown_core_rejected(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        rec = mini_db.record("mini_csps", 0)
        inputs = ModelInputs(counters=rec.counters_at(base), atd=rec.atd_report())
        with pytest.raises(KeyError):
            rm.observe(7, inputs)

    def test_ops_accounting_present(self, mini_db, system2):
        rm = RM3(system2, Model3())
        base = system2.baseline_setting()
        decision = observe(rm, mini_db, 0, "mini_csps", 0, base)
        assert decision.local_evaluations == 450
        assert decision.dp_operations > 0


class TestFactory:
    def test_make_rm_kinds(self, system2):
        assert isinstance(make_rm("idle", system2), IdleRM)
        assert isinstance(make_rm("rm1", system2, Model3()), RM1)
        assert isinstance(make_rm("RM3", system2, Model3()), RM3)

    def test_model_required(self, system2):
        with pytest.raises(ValueError):
            make_rm("rm2", system2)

    def test_unknown_kind(self, system2):
        with pytest.raises(ValueError):
            make_rm("rm9", system2, Model3())

    def test_capability_labels(self, system2):
        assert make_rm("rm1", system2, Model3()).capabilities.label == "w"
        assert make_rm("rm2", system2, Model3()).capabilities.label == "w+f"
        assert make_rm("rm3", system2, Model3()).capabilities.label == "w+f+c"


class TestCostModel:
    def test_default_fit_accuracy(self):
        """Defaults reproduce the paper's six points within ~16%."""
        cost = RMCostModel()
        samples = {
            ("w+f", 2): (150, 225),
            ("w+f", 4): (150, 1291),
            ("w+f", 8): (150, 5831),
            ("w+f+c", 2): (450, 225),
            ("w+f+c", 4): (450, 1291),
            ("w+f+c", 8): (450, 5831),
        }
        for (label, n), (evals, dp) in samples.items():
            paper = PAPER_RM_INSTRUCTIONS[label][n]
            est = cost.instructions(n, evals, dp)
            assert abs(est - paper) / paper < 0.17

    def test_floor(self):
        cost = RMCostModel()
        assert cost.instructions(1, 0, 0) >= cost.min_instructions

    def test_overhead_fraction_matches_paper_claim(self):
        """RM3 at 8 cores: ~0.1% of a 100M-instruction interval."""
        cost = RMCostModel()
        instr = cost.instructions(8, 450, 5831)
        frac = cost.overhead_fraction(instr, 100_000_000)
        assert 0.0005 < frac < 0.0015

    def test_time_overhead(self):
        cost = RMCostModel()
        t = cost.time_overhead_s(100_000, ipc=2.0, f_ghz=2.0)
        assert t == pytest.approx(100_000 / 4e9)
        with pytest.raises(ValueError):
            cost.time_overhead_s(1, 0.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RMCostModel().instructions(0, 1, 1)
