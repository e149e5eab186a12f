"""Local and global optimisation tests, incl. DP optimality vs brute force."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CoreSize
from repro.core.energy_curve import EnergyCurve
from repro.core.energy_model import OnlineEnergyModel
from repro.core.global_opt import combine_pair, partition_ways
from repro.core.local_opt import LocalOptResult, RMCapabilities, optimize_local
from repro.core.perf_models import Model3, ModelInputs
from repro.power.model import PowerModel


@pytest.fixture(scope="module")
def opt_env(mini_db, system2):
    em = OnlineEnergyModel(
        PowerModel(system2.power, system2.dvfs, system2.memory)
    )
    base = system2.baseline_setting()
    rec = mini_db.record("mini_csps", 0)
    inputs = ModelInputs(counters=rec.counters_at(base), atd=rec.atd_report())
    return em, inputs


class TestEnergyCurve:
    def test_domain(self):
        c = EnergyCurve(np.arange(2, 17), np.ones(15))
        assert c.w_min == 2 and c.w_max == 16
        assert c.energy_at(5) == 1.0
        with pytest.raises(ValueError):
            c.energy_at(1)

    def test_contiguity_required(self):
        with pytest.raises(ValueError):
            EnergyCurve(np.array([2, 4, 5]), np.ones(3))

    def test_pinned(self):
        c = EnergyCurve.pinned(8)
        assert c.w_min == c.w_max == 8
        assert c.has_feasible_point()

    def test_infeasible_detection(self):
        c = EnergyCurve(np.arange(2, 5), np.full(3, np.inf))
        assert not c.has_feasible_point()


class TestLocalOpt:
    def test_rm1_keeps_baseline_cf(self, opt_env, system2):
        em, inputs = opt_env
        res = optimize_local(
            inputs, Model3(), em, system2,
            RMCapabilities(adapt_frequency=False, adapt_core=False),
        )
        feasible = np.isfinite(res.curve.energy)
        assert np.all(res.f_star[feasible] == system2.dvfs.f_base_ghz)
        assert np.all(res.c_star[feasible] == int(CoreSize.M))

    def test_rm2_adapts_frequency_only(self, opt_env, system2):
        em, inputs = opt_env
        res = optimize_local(
            inputs, Model3(), em, system2,
            RMCapabilities(adapt_frequency=True, adapt_core=False),
        )
        feasible = np.isfinite(res.curve.energy)
        assert np.all(res.c_star[feasible] == int(CoreSize.M))
        assert np.any(res.f_star[feasible] != system2.dvfs.f_base_ghz)

    def test_rm3_dominates_rm2_pointwise(self, opt_env, system2):
        """A superset search space can only improve each curve point."""
        em, inputs = opt_env
        rm2 = optimize_local(
            inputs, Model3(), em, system2,
            RMCapabilities(adapt_frequency=True, adapt_core=False),
        )
        rm3 = optimize_local(
            inputs, Model3(), em, system2,
            RMCapabilities(adapt_frequency=True, adapt_core=True),
        )
        assert np.all(rm3.curve.energy <= rm2.curve.energy + 1e-12)

    def test_baseline_allocation_always_feasible(self, opt_env, system2):
        em, inputs = opt_env
        for caps in (
            RMCapabilities(False, False),
            RMCapabilities(True, False),
            RMCapabilities(True, True),
        ):
            res = optimize_local(inputs, Model3(), em, system2, caps)
            assert res.is_feasible(system2.baseline_setting().ways)

    def test_selected_settings_meet_qos_prediction(self, opt_env, system2):
        em, inputs = opt_env
        res = optimize_local(
            inputs, Model3(), em, system2, RMCapabilities(True, True)
        )
        feasible = np.isfinite(res.curve.energy)
        assert np.all(
            res.t_hat[feasible] <= res.predicted_baseline_time * (1 + 1e-9)
        )

    def test_setting_for(self, opt_env, system2):
        em, inputs = opt_env
        res = optimize_local(
            inputs, Model3(), em, system2, RMCapabilities(True, True)
        )
        s = res.setting_for(8)
        assert s.ways == 8
        assert res.setting_for(8) is s  # memoized on the result
        with pytest.raises(ValueError):
            res.setting_for(99)

    def test_is_feasible_checks_its_domain(self):
        """A 2..16 curve feasible only at 16 ways: below the domain the
        unchecked index wrapped round to 16 ways, above it raised
        ``IndexError``; both sides raise ``ValueError``, as
        :meth:`setting_for` does."""
        energy = np.full(15, np.inf)
        energy[-1] = 1.0
        res = LocalOptResult(
            curve=EnergyCurve(np.arange(2, 17), energy),
            c_star=np.full(15, int(CoreSize.M)),
            f_star=np.full(15, 2.0),
            t_hat=np.full(15, np.inf),
            predicted_baseline_time=1.0,
            evaluations=0,
        )
        assert res.is_feasible(16) and not res.is_feasible(2)
        for ways in (0, 1, 17):
            with pytest.raises(ValueError):
                res.is_feasible(ways)
            with pytest.raises(ValueError):
                res.setting_for(ways)

    def test_evaluation_count(self, opt_env, system2):
        em, inputs = opt_env
        res3 = optimize_local(
            inputs, Model3(), em, system2, RMCapabilities(True, True)
        )
        res2 = optimize_local(
            inputs, Model3(), em, system2, RMCapabilities(True, False)
        )
        res1 = optimize_local(
            inputs, Model3(), em, system2, RMCapabilities(False, False)
        )
        assert res3.evaluations == 3 * 10 * 15
        assert res2.evaluations == 10 * 15
        assert res1.evaluations == 15


def brute_force_partition(curves, total):
    best, best_alloc = np.inf, None
    ranges = [range(c.w_min, c.w_max + 1) for c in curves]
    for alloc in itertools.product(*ranges):
        if sum(alloc) != total:
            continue
        e = sum(c.energy_at(w) for c, w in zip(curves, alloc))
        if e < best:
            best, best_alloc = e, list(alloc)
    return best, best_alloc


def curve_strategy():
    return st.lists(
        st.one_of(st.floats(0.0, 100.0), st.just(float("inf"))),
        min_size=15,
        max_size=15,
    ).map(lambda e: EnergyCurve(np.arange(2, 17), np.array(e)))


class TestGlobalOpt:
    def test_combine_pair_manual(self):
        a = EnergyCurve(np.array([1, 2]), np.array([5.0, 1.0]))
        b = EnergyCurve(np.array([1, 2]), np.array([4.0, 0.5]))
        combined, choice, ops = combine_pair(a, b)
        assert combined.w_min == 2 and combined.w_max == 4
        assert combined.energy_at(2) == 9.0
        assert combined.energy_at(3) == 5.0  # min(5+0.5, 1+4)
        assert combined.energy_at(4) == 1.5
        assert ops == 4

    def test_partition_budget_respected(self, system2):
        curves = [
            EnergyCurve(np.arange(2, 17), np.linspace(10, 1, 15)) for _ in range(4)
        ]
        res = partition_ways(curves, 32)
        assert sum(res.ways) == 32
        assert all(2 <= w <= 16 for w in res.ways)

    def test_pinned_curves_fix_allocation(self):
        curves = [
            EnergyCurve.pinned(8),
            EnergyCurve(np.arange(2, 17), np.linspace(5, 1, 15)),
            EnergyCurve.pinned(8),
        ]
        res = partition_ways(curves, 24)
        assert res.ways[0] == 8 and res.ways[2] == 8 and res.ways[1] == 8

    def test_budget_out_of_domain(self):
        with pytest.raises(ValueError):
            partition_ways([EnergyCurve.pinned(8)], 9)

    def test_all_infeasible_raises(self):
        curves = [
            EnergyCurve(np.arange(2, 5), np.full(3, np.inf)),
            EnergyCurve(np.arange(2, 5), np.zeros(3)),
        ]
        with pytest.raises(ValueError):
            partition_ways(curves, 6)

    @given(curves=st.lists(curve_strategy(), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_dp_matches_brute_force(self, curves):
        total = 8 * len(curves)
        expected, _ = brute_force_partition(curves, total)
        if not np.isfinite(expected):
            with pytest.raises(ValueError):
                partition_ways(curves, total)
            return
        res = partition_ways(curves, total)
        assert res.total_energy == pytest.approx(expected)
        assert sum(res.ways) == total
        realised = sum(c.energy_at(w) for c, w in zip(curves, res.ways))
        assert realised == pytest.approx(res.total_energy)

    @given(
        n=st.integers(2, 6),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_backtracking_consistent(self, n, seed):
        rng = np.random.default_rng(seed)
        curves = [
            EnergyCurve(np.arange(2, 17), rng.random(15) * 10) for _ in range(n)
        ]
        res = partition_ways(curves, 8 * n)
        realised = sum(c.energy_at(w) for c, w in zip(curves, res.ways))
        assert realised == pytest.approx(res.total_energy)

    def test_polynomial_op_scaling(self):
        """Reduction work grows polynomially, not exponentially."""
        ops = {}
        for n in (2, 4, 8):
            curves = [
                EnergyCurve(np.arange(2, 17), np.linspace(9, 1, 15))
                for _ in range(n)
            ]
            ops[n] = partition_ways(curves, 8 * n).dp_operations
        assert ops[8] < 80 * ops[2]  # far below 15**8 / 15**2
