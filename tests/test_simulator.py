"""Multi-core RM simulator tests: events, metrics, end-to-end runs."""

from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

from repro.core.managers import IdleRM, RM3, make_rm
from repro.core.perf_models import Model3, PerfectModel
from repro.simulator.events import Boundary, next_boundary, time_to_boundary
from repro.simulator.metrics import (
    SimResult,
    energy_savings,
    weighted_scenario_average,
)
from repro.simulator.rmsim import WAVE_MODES, MulticoreRMSimulator
from repro.power.energy import EnergyBreakdown


class TestEvents:
    def test_time_to_boundary(self):
        assert time_to_boundary(0.01, 100, 0.001) == pytest.approx(0.11)
        with pytest.raises(ValueError):
            time_to_boundary(-1, 0, 1)

    def test_next_boundary_picks_earliest(self):
        b = next_boundary([0.0, 0.0], [10, 5], [1.0, 1.0])
        assert b == Boundary(core_id=1, dt_s=5.0)

    def test_tie_breaks_to_lowest_core(self):
        b = next_boundary([0.0, 0.0], [5, 5], [1.0, 1.0])
        assert b.core_id == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            next_boundary([], [], [])


class TestMetrics:
    def _result(self, apps=("a", "b"), energy=1.0, horizon=1e8):
        return SimResult(
            rm_name="x",
            apps=tuple(apps),
            per_core_energy=[
                EnergyBreakdown(core_dynamic_j=energy / 2),
                EnergyBreakdown(core_dynamic_j=energy / 2),
            ],
            uncore_j=0.5,
            t_end_s=1.0,
            horizon_instructions=horizon,
            intervals_completed=10,
            qos_checks=10,
        )

    def test_energy_savings(self):
        base = self._result(energy=2.0)
        better = self._result(energy=1.0)
        assert energy_savings(better, base) == pytest.approx(1.0 / 2.5)

    def test_savings_requires_same_workload(self):
        with pytest.raises(ValueError):
            energy_savings(self._result(apps=("a", "c")), self._result())
        with pytest.raises(ValueError):
            energy_savings(self._result(horizon=5e7), self._result())

    def test_violation_rate(self):
        r = self._result()
        r.violations = [0.1, 0.2]
        assert r.violation_rate == pytest.approx(0.2)
        assert r.mean_violation() == pytest.approx(0.15)

    def test_weighted_scenario_average(self):
        avg = weighted_scenario_average(
            {1: [0.2, 0.4], 2: [0.1]}, {1: 0.75, 2: 0.25}
        )
        assert avg == pytest.approx(0.75 * 0.3 + 0.25 * 0.1)
        with pytest.raises(ValueError):
            weighted_scenario_average({1: []}, {1: 1.0})


class TestSimulation:
    def test_idle_run_matches_database_exactly(self, mini_db, system2):
        """Idle RM: total time is the sum of per-interval baseline times."""
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2), charge_overheads=False)
        res = sim.run(["mini_csps", "mini_csps"], horizon_intervals=4)
        base = system2.baseline_setting()
        expected = sum(
            mini_db.record_for_interval("mini_csps", i).time_at(base)
            for i in range(4)
        )
        assert res.t_end_s == pytest.approx(expected, rel=1e-6)
        assert res.violations == []

    def test_idle_energy_matches_database(self, mini_db, system2):
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2), charge_overheads=False)
        res = sim.run(["mini_cips", "mini_cips"], horizon_intervals=3)
        base = system2.baseline_setting()
        expected = sum(
            mini_db.record_for_interval("mini_cips", i).energy_at(base)
            for i in range(3)
        )
        assert res.per_core_energy[0].app_total_j == pytest.approx(expected, rel=1e-6)

    def test_all_cores_reach_horizon(self, mini_db, system2):
        sim = MulticoreRMSimulator(mini_db, RM3(system2, Model3()))
        res = sim.run(["mini_csps", "mini_cipi"], horizon_intervals=5)
        assert res.intervals_completed >= 10
        assert res.t_end_s > 0

    def test_heterogeneous_speeds_handled(self, mini_db, system2):
        """A slow and a fast app finish at different wall-clock times."""
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2), charge_overheads=False)
        res = sim.run(["mini_csps", "mini_cipi"], horizon_intervals=4)
        base = system2.baseline_setting()
        slow = sum(
            mini_db.record_for_interval("mini_csps", i).time_at(base) for i in range(4)
        )
        assert res.t_end_s == pytest.approx(slow, rel=1e-6)

    def test_perfect_rm3_saves_energy_and_respects_qos(self, mini_db, system2):
        idle = MulticoreRMSimulator(
            mini_db, IdleRM(system2), charge_overheads=False
        ).run(["mini_cips", "mini_cips"], horizon_intervals=4)
        rm3 = MulticoreRMSimulator(
            mini_db, RM3(system2, PerfectModel()), charge_overheads=False
        ).run(["mini_cips", "mini_cips"], horizon_intervals=4)
        assert energy_savings(rm3, idle) > 0.02
        assert all(v < 0.01 for v in rm3.violations)

    def test_overheads_increase_time(self, mini_db, system2):
        on = MulticoreRMSimulator(
            mini_db, RM3(system2, PerfectModel()), charge_overheads=True
        ).run(["mini_cips", "mini_cips"], horizon_intervals=4)
        off = MulticoreRMSimulator(
            mini_db, RM3(system2, PerfectModel()), charge_overheads=False
        ).run(["mini_cips", "mini_cips"], horizon_intervals=4)
        assert on.rm_instructions > 0
        assert off.rm_instructions == 0
        assert on.t_end_s >= off.t_end_s

    def test_history_collection(self, mini_db, system2):
        sim = MulticoreRMSimulator(
            mini_db, RM3(system2, PerfectModel()), collect_history=True
        )
        res = sim.run(["mini_cips", "mini_csps"], horizon_intervals=3)
        assert res.history is not None
        assert all(h.time_s <= res.t_end_s for h in res.history)

    def test_workload_arity_checked(self, mini_db, system2):
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2))
        with pytest.raises(ValueError):
            sim.run(["mini_csps"])
        with pytest.raises(KeyError):
            sim.run(["mini_csps", "nonexistent"])

    def test_energy_breakdown_components_positive(self, mini_db, system2):
        res = MulticoreRMSimulator(
            mini_db, RM3(system2, Model3())
        ).run(["mini_csps", "mini_cips"], horizon_intervals=3)
        bd = res.breakdown()
        assert bd["core_dynamic_j"] > 0
        assert bd["core_static_j"] > 0
        assert bd["memory_j"] > 0
        assert bd["uncore_j"] > 0

    def test_horizon_default_longest_app(self, mini_db, system2):
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2), charge_overheads=False)
        res = sim.run(["mini_csps", "mini_cipi"])  # 8 and 5 intervals
        n = system2.scale.interval_instructions
        assert res.horizon_instructions == pytest.approx(8 * n)

    def test_single_phase_apps_rarely_violate(self, mini_db, system2):
        """Without phase churn, Model3's closed-loop violations are rare
        and small (the chronic component comes from phase transitions)."""
        res = MulticoreRMSimulator(
            mini_db, RM3(system2, Model3())
        ).run(["mini_cips", "mini_cipi"], horizon_intervals=12)
        big = [v for v in res.violations if v > 0.05]
        assert len(big) <= res.qos_checks // 4

    def test_rm_instruction_overhead_accrues(self, mini_db, system2):
        res = MulticoreRMSimulator(
            mini_db, RM3(system2, Model3())
        ).run(["mini_csps", "mini_cips"], horizon_intervals=6)
        assert res.rm_invocations >= 12
        assert res.rm_instructions > 0
        per_invocation = res.rm_instructions / res.rm_invocations
        # 2-core RM3 costs ~51K instructions per invocation (Sec. III-E)
        assert 30_000 < per_invocation < 80_000

    def test_same_seeded_run_reproducible(self, mini_db, system2):
        def once():
            return MulticoreRMSimulator(mini_db, RM3(system2, Model3())).run(
                ["mini_csps", "mini_cips"], horizon_intervals=4
            )

        a, b = once(), once()
        assert a.total_energy_j == pytest.approx(b.total_energy_j)
        assert a.t_end_s == pytest.approx(b.t_end_s)
        assert np.allclose(a.violations, b.violations)


class TestPerfectWithoutOverheads:
    """Perfect predicts every interval's time exactly, so with no
    overhead charged the RM never runs a core past its budget: no QoS
    check records a violation, for any manager, alpha or event loop.
    Under a relaxed alpha the RM slows applications down inside the
    budget it was granted, and that is not a violation."""

    @pytest.mark.parametrize("wave", WAVE_MODES)
    @pytest.mark.parametrize("alpha", [1.0, 1.1, 1.3])
    @pytest.mark.parametrize("kind", ["rm1", "rm2", "rm3"])
    def test_no_violations_on_mini_databases(
        self, mini_db, mini_db4, kind, alpha, wave
    ):
        for db in (mini_db, mini_db4):
            system = replace(db.system, qos_alpha=alpha)
            for pair in combinations_with_replacement(db.app_names(), 2):
                apps = list(pair) * (system.n_cores // 2)
                rm = make_rm(kind, system, PerfectModel())
                res = MulticoreRMSimulator(
                    db, rm, charge_overheads=False, wave=wave
                ).run(apps)
                assert res.qos_checks > 0
                assert res.violations == [], (apps, res.violations)

    @pytest.mark.parametrize("wave", WAVE_MODES)
    def test_no_violations_at_paper_scale(self, full_db, wave):
        for kind in ("rm1", "rm2", "rm3"):
            for alpha in (1.0, 1.1, 1.3):
                system = replace(full_db.system, qos_alpha=alpha)
                rm = make_rm(kind, system, PerfectModel())
                res = MulticoreRMSimulator(
                    full_db, rm, charge_overheads=False, wave=wave
                ).run(["mcf", "omnetpp", "libquantum", "gamess"])
                assert res.qos_checks > 0
                assert res.violations == [], (kind, alpha, res.violations)
