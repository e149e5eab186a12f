"""Power substrate tests: the quadratic-DVFS / linear-size structure."""

import pytest
from hypothesis import given, strategies as st

from repro.config import CoreSize, DVFSConfig, MemoryConfig, PowerConfig, Setting
from repro.power.dvfs import DVFSController, TransitionCost
from repro.power.energy import EnergyBreakdown
from repro.power.model import PowerModel


@pytest.fixture(scope="module")
def power():
    return PowerModel(PowerConfig(), DVFSConfig(), MemoryConfig())


class TestPowerModel:
    def test_dynamic_energy_quadratic_in_voltage(self, power):
        e08 = power.dynamic_energy_per_instruction_j(CoreSize.M, 0.8)
        e10 = power.dynamic_energy_per_instruction_j(CoreSize.M, 1.0)
        assert e08 / e10 == pytest.approx(0.64)

    def test_size_cost_roughly_linear_not_quadratic(self, power):
        """The paper's core argument: upsize cost << DVFS cost."""
        e_m = power.dynamic_energy_per_instruction_j(CoreSize.M, 1.0)
        e_l = power.dynamic_energy_per_instruction_j(CoreSize.L, 1.0)
        # going M->L costs far less than the 2x issue-width ratio
        assert 1.0 < e_l / e_m < 1.5

    def test_static_power_increases_with_size_and_voltage(self, power):
        for v in (0.8, 1.0, 1.25):
            s = power.static_power_w(CoreSize.S, v)
            m = power.static_power_w(CoreSize.M, v)
            l = power.static_power_w(CoreSize.L, v)
            assert s < m < l
        assert power.static_power_w(CoreSize.M, 0.8) < power.static_power_w(
            CoreSize.M, 1.25
        )

    def test_memory_energy(self, power):
        assert power.dram_access_energy_j() == pytest.approx(20e-9)
        assert power.llc_access_energy_j() == pytest.approx(1.1e-9)

    def test_uncore_power_scales_with_cores(self, power):
        assert power.uncore_power_w(8) == pytest.approx(2 * power.uncore_power_w(4))

    def test_validation(self, power):
        with pytest.raises(ValueError):
            power.dynamic_energy_per_instruction_j(CoreSize.M, 0.0)
        with pytest.raises(ValueError):
            power.uncore_power_w(0)

    @given(f=st.sampled_from(DVFSConfig().frequencies_ghz()))
    def test_dvfs_energy_cost_quadratic_shape(self, f):
        power = PowerModel(PowerConfig(), DVFSConfig(), MemoryConfig())
        v = DVFSConfig().voltage(f)
        e = power.dynamic_energy_per_instruction_j(CoreSize.M, v)
        e_base = power.dynamic_energy_per_instruction_j(CoreSize.M, 1.0)
        assert e / e_base == pytest.approx((v / 1.0) ** 2)


class TestDVFSController:
    def test_vf_change_priced(self):
        ctl = DVFSController(DVFSConfig())
        cost = ctl.vf_transition_cost(2.0, 2.5)
        assert cost.time_s == pytest.approx(15e-6)
        assert cost.energy_j == pytest.approx(3e-6)

    def test_no_change_free(self):
        ctl = DVFSController(DVFSConfig())
        assert ctl.vf_transition_cost(2.0, 2.0) == TransitionCost()

    def test_resize_drain(self):
        ctl = DVFSController(DVFSConfig(), resize_drain_ipc=2.0)
        cost = ctl.resize_cost(CoreSize.L, CoreSize.M, f_ghz=2.0)
        assert cost.time_s == pytest.approx(256 / 2.0 / 2e9)
        assert cost.energy_j == 0.0
        assert ctl.resize_cost(CoreSize.M, CoreSize.M, 2.0) == TransitionCost()

    def test_combined_transition(self):
        ctl = DVFSController(DVFSConfig())
        a = Setting(CoreSize.M, 2.0, 8)
        b = Setting(CoreSize.L, 1.5, 10)
        cost = ctl.transition_cost(a, b)
        assert cost.time_s > 15e-6  # DVFS + drain
        # mask-only change is free
        assert ctl.transition_cost(a, a.replace(ways=4)) == TransitionCost()

    def test_cost_addition(self):
        c = TransitionCost(1e-6, 2e-6) + TransitionCost(2e-6, 1e-6)
        assert c.time_s == pytest.approx(3e-6)
        assert c.energy_j == pytest.approx(3e-6)


class TestEnergyBreakdown:
    def test_totals(self):
        e = EnergyBreakdown(1.0, 2.0, 3.0, 4.0, 0.5)
        assert e.app_total_j == pytest.approx(6.5)

    def test_add(self):
        a = EnergyBreakdown(1, 1, 1, 1, 1)
        a.add(EnergyBreakdown(1, 2, 3, 4, 5))
        assert a.core_static_j == 3
