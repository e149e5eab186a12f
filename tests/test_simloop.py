"""Wave event loop tests.

The contract under test:

* the wave ``step`` loop is bit-identical to the ``scalar``
  oracle on full runs — settings history, energies, violations,
  operation accounting — across RMs x models x overheads x
  reduction/local modes (the replay engine's differential pattern);
* both loops make the same local-decision memo traffic;
* the accelerated reduction path (budget windows, native kernel, lazy
  back-track choices) is bit-identical to the plain tree;
* waves replaying a settings map by identity skip every non-boundary
  rate refresh (the ``rate_refreshes`` accounting).
"""

import numpy as np
import pytest

from repro import settings
from repro.campaign.results import result_to_json
from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import ReductionTree, partition_ways
from repro.core.managers import IdleRM, make_rm
from repro.core.perf_models import Model1, Model3, PerfectModel
from repro.simulator.rmsim import WAVE_MODES, MulticoreRMSimulator

MODELS = {"Model1": Model1, "Model3": Model3, "Perfect": PerfectModel}


def _run_json(db, system, kind, model, wave, **kw):
    if kind == "idle":
        rm = make_rm("idle", system)
    else:
        rm = make_rm(kind, system, MODELS[model](), **kw)
    sim = MulticoreRMSimulator(db, rm, collect_history=True, wave=wave)
    return result_to_json(sim.run(kw.pop("apps", None) or _apps(system), horizon_intervals=10)), rm


def _apps(system):
    base = ["mini_csps", "mini_cips", "mini_csps", "mini_cipi"]
    return base[: system.n_cores]


def _assert_all_modes_equal(texts):
    """Every :data:`WAVE_MODES` entry ran and produced the same JSON."""
    assert set(texts) == set(WAVE_MODES)
    for wave, text in texts.items():
        assert text == texts["scalar"], f"{wave} != scalar"


# ---------------------------------------------------------------------------
# the tentpole contract: full-run differential across the mode matrix
# ---------------------------------------------------------------------------
class TestWaveDifferential:
    @pytest.mark.parametrize("kind", ["idle", "rm1", "rm3"])
    @pytest.mark.parametrize("model", ["Model3", "Perfect"])
    def test_wave_modes_bit_identical(self, mini_db4, system4, kind, model):
        texts = {
            wave: _run_json(mini_db4, system4, kind, model, wave)[0]
            for wave in WAVE_MODES
        }
        _assert_all_modes_equal(texts)

    @pytest.mark.parametrize("reduction", ["incremental", "full_rebuild"])
    @pytest.mark.parametrize("local_mode", ["memoized", "always_recompute"])
    def test_kernel_modes_bit_identical(
        self, mini_db, system2, reduction, local_mode
    ):
        texts = {}
        for wave in WAVE_MODES:
            rm = make_rm(
                "rm3",
                system2,
                Model3(),
                reduction=reduction,
                local_mode=local_mode,
            )
            sim = MulticoreRMSimulator(
                mini_db, rm, collect_history=True, wave=wave
            )
            texts[wave] = result_to_json(
                sim.run(["mini_csps", "mini_cips"], horizon_intervals=10)
            )
        _assert_all_modes_equal(texts)

    def test_tied_boundaries_bit_identical(self, mini_db4, system4):
        """Same app on every core: every boundary ties with the others.
        RM3's memo sees the same hits and misses under either loop, so
        the wave loop does no local-decision work the scalar loop skips."""
        for kind in ("idle", "rm3"):
            texts = {}
            memo_traffic = {}
            for wave in WAVE_MODES:
                rm = (
                    make_rm("idle", system4)
                    if kind == "idle"
                    else make_rm(kind, system4, Model3())
                )
                sim = MulticoreRMSimulator(
                    mini_db4, rm, collect_history=True, wave=wave
                )
                texts[wave] = result_to_json(
                    sim.run(["mini_csps"] * 4, horizon_intervals=10)
                )
                if rm.local_memo is not None:
                    memo_traffic[wave] = (rm.local_memo.hits, rm.local_memo.misses)
            _assert_all_modes_equal(texts)
            if kind == "rm3":
                assert memo_traffic["step"] == memo_traffic["scalar"]

    def test_no_overheads_bit_identical(self, mini_db4, system4):
        texts = {}
        for wave in WAVE_MODES:
            rm = make_rm("rm3", system4, PerfectModel())
            sim = MulticoreRMSimulator(
                mini_db4,
                rm,
                charge_overheads=False,
                collect_history=True,
                wave=wave,
            )
            texts[wave] = result_to_json(
                sim.run(_apps(system4), horizon_intervals=10)
            )
        _assert_all_modes_equal(texts)

    def test_wave_mode_resolution_and_validation(self, mini_db, system2, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_WAVE", raising=False)
        sim = MulticoreRMSimulator(mini_db, IdleRM(system2))
        assert sim.wave == "step"
        monkeypatch.setenv("REPRO_SIM_WAVE", "scalar")
        settings.resolve()
        assert MulticoreRMSimulator(mini_db, IdleRM(system2)).wave == "scalar"
        for removed in ("batched", "epsilon", "native"):
            with pytest.raises(ValueError):
                MulticoreRMSimulator(mini_db, IdleRM(system2), wave=removed)


# ---------------------------------------------------------------------------
# satellite: identity-replayed waves skip every non-boundary rate refresh
# ---------------------------------------------------------------------------
class TestRateRefreshSkipping:
    def _refreshes(self, db, system, rm, wave, apps, horizon=8):
        sim = MulticoreRMSimulator(db, rm, wave=wave)
        # Count only in-run refreshes (setup refreshes each core once).
        result = sim.run(apps, horizon_intervals=horizon)
        return result

    def test_idle_wave_refreshes_boundary_core_only(self, mini_db, system2):
        """Idle replays its settings map by identity at every boundary:
        the wave path must refresh exactly one core per event (the
        boundary core, whose record changed) beyond the initial setup."""
        rm = IdleRM(system2)
        sim = MulticoreRMSimulator(mini_db, rm, wave="step")
        # Intercept the state container to read the counter afterwards.
        result = sim.run(["mini_csps", "mini_cips"], horizon_intervals=8)
        # setup refreshes n cores; every boundary refreshes exactly 1.
        # (intervals_completed == number of boundaries processed)
        # The simulator discards the state container, so re-run with a
        # probe: monkeypatching is avoided by re-deriving the invariant
        # from a fresh, instrumented run below.
        n = system2.n_cores
        import repro.simulator.rmsim as rmsim_mod

        captured = {}
        orig = rmsim_mod._CoreStates

        class Probe(orig):
            def __init__(self, n):
                super().__init__(n)
                captured["st"] = self

        rmsim_mod._CoreStates = Probe
        try:
            rm2 = IdleRM(system2)
            sim2 = MulticoreRMSimulator(mini_db, rm2, wave="step")
            res2 = sim2.run(["mini_csps", "mini_cips"], horizon_intervals=8)
        finally:
            rmsim_mod._CoreStates = orig
        st = captured["st"]
        assert st.rate_refreshes == n + res2.intervals_completed
        assert result.intervals_completed == res2.intervals_completed

    def test_scalar_oracle_refresh_floor_matches(self, mini_db, system2):
        """The scalar path refreshes the same single core on identity
        replays — the wave path must never refresh fewer."""
        import repro.simulator.rmsim as rmsim_mod

        counts = {}
        orig = rmsim_mod._CoreStates

        class Probe(orig):
            def __init__(self, n):
                super().__init__(n)
                counts.setdefault("states", []).append(self)

        rmsim_mod._CoreStates = Probe
        try:
            for wave in ("scalar", "step"):
                rm = IdleRM(system2)
                MulticoreRMSimulator(mini_db, rm, wave=wave).run(
                    ["mini_csps", "mini_cips"], horizon_intervals=8
                )
        finally:
            rmsim_mod._CoreStates = orig
        scalar_st, wave_st = counts["states"]
        assert wave_st.rate_refreshes == scalar_st.rate_refreshes


# ---------------------------------------------------------------------------
# the accelerated reduction tree
# ---------------------------------------------------------------------------
def _random_curves(rng, n, width=15, w_min=2):
    return [
        EnergyCurve(
            np.arange(w_min, w_min + width), rng.random(width) * 10.0
        )
        for _ in range(n)
    ]


class TestAcceleratedTree:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_solve_bit_identical_to_plain(self, n):
        rng = np.random.default_rng(7)
        curves = _random_curves(rng, n)
        budget = 8 * n
        plain = ReductionTree(curves)
        accel = ReductionTree(curves, acceleration=(budget, 2, 16))
        ref = plain.solve(budget)
        got = accel.solve(budget)
        assert got.ways == ref.ways
        assert got.total_energy == ref.total_energy
        assert got.dp_operations == ref.dp_operations
        assert accel.build_operations == plain.build_operations

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_updates_bit_identical_and_bill_invariant(self, n):
        rng = np.random.default_rng(11)
        curves = _random_curves(rng, n)
        budget = 8 * n
        plain = ReductionTree(curves)
        accel = ReductionTree(curves, acceleration=(budget, 2, 16))
        for step in range(2 * n):
            i = int(rng.integers(n))
            fresh = _random_curves(rng, 1)[0]
            curves[i] = fresh
            ops_plain = plain.update(i, fresh)
            ops_accel = accel.update(i, fresh)
            assert ops_accel == ops_plain
            assert accel.path_operations(i) == plain.path_operations(i)
            ref = plain.solve(budget)
            got = accel.solve(budget)
            assert got.ways == ref.ways
            assert got.total_energy == ref.total_energy
            stateless = partition_ways(curves, budget)
            assert got.ways == stateless.ways

    def test_infeasible_points_handled(self):
        rng = np.random.default_rng(3)
        curves = _random_curves(rng, 4)
        for c in curves:
            c.energy[rng.random(c.energy.size) < 0.4] = np.inf
        budget = 32
        plain = ReductionTree(curves).solve(budget)
        accel = ReductionTree(curves, acceleration=(budget, 2, 16)).solve(budget)
        assert accel.ways == plain.ways
        assert accel.total_energy == plain.total_energy

    def test_pinned_warmup_states(self):
        """The managers' actual build state: pinned leaves + one real."""
        for n in (4, 8):
            curves = [EnergyCurve.pinned(8) for _ in range(n)]
            curves[n // 2] = _random_curves(np.random.default_rng(5), 1)[0]
            budget = 8 * n
            plain = ReductionTree(curves).solve(budget)
            accel = ReductionTree(
                curves, acceleration=(budget, 2, 16)
            ).solve(budget)
            assert accel.ways == plain.ways
            assert accel.total_energy == plain.total_energy

    def test_numpy_fallback_matches_native(self, monkeypatch):
        rng = np.random.default_rng(13)
        curves = _random_curves(rng, 8)
        budget = 64
        native = ReductionTree(curves, acceleration=(budget, 2, 16))
        monkeypatch.setattr(_native_opt, "_lib", None)
        monkeypatch.setattr(_native_opt, "_lib_failed", True)
        fallback = ReductionTree(curves, acceleration=(budget, 2, 16))
        fresh = _random_curves(rng, 1)[0]
        ops_a = native.update(3, fresh)
        ops_b = fallback.update(3, fresh)
        assert ops_a == ops_b
        a, b = native.solve(budget), fallback.solve(budget)
        assert a.ways == b.ways
        assert a.total_energy == b.total_energy

    def test_strided_leaf_curves_are_repacked(self):
        """Caller-supplied strided energy views must not feed the raw-
        pointer kernels: the accelerated tree repacks them at install and
        stays bit-identical to the plain tree."""
        rng = np.random.default_rng(17)
        backing = rng.random(30) * 10.0
        strided = EnergyCurve(np.arange(2, 17), backing[::2])
        assert not strided.energy.flags.c_contiguous
        curves = _random_curves(rng, 4)
        curves[1] = strided
        budget = 32
        plain = ReductionTree(curves).solve(budget)
        accel_tree = ReductionTree(curves, acceleration=(budget, 2, 16))
        got = accel_tree.solve(budget)
        assert got.ways == plain.ways
        assert got.total_energy == plain.total_energy
        # ... and through update() on an already-built tree too.
        tree = ReductionTree(curves, acceleration=(budget, 2, 16))
        strided2 = EnergyCurve(np.arange(2, 17), backing[::-2][::-1][:15])
        tree.update(2, strided2)
        curves[2] = strided2
        ref = partition_ways(curves, budget)
        got2 = tree.solve(budget)
        assert got2.ways == ref.ways
        assert got2.total_energy == ref.total_energy

    def test_accelerated_budget_guard(self):
        curves = _random_curves(np.random.default_rng(1), 4)
        tree = ReductionTree(curves, acceleration=(32, 2, 16))
        tree.solve(32)
        with pytest.raises(ValueError):
            tree.solve(30)

    def test_acceleration_validation(self):
        curves = _random_curves(np.random.default_rng(1), 2)
        with pytest.raises(ValueError):
            ReductionTree(curves, acceleration=(16, 0, 16))
        with pytest.raises(ValueError):
            ReductionTree(curves, acceleration=(16, 8, 4))
        with pytest.raises(ValueError):
            ReductionTree(curves, acceleration=(0, 2, 16))

    def test_eval_cache_invalidated_by_update(self):
        rng = np.random.default_rng(2)
        curves = _random_curves(rng, 4)
        tree = ReductionTree(curves, acceleration=(32, 2, 16))
        first = tree.solve(32)
        fresh = _random_curves(rng, 1)[0]
        curves[0] = fresh
        tree.update(0, fresh)
        second = tree.solve(32)
        ref = partition_ways(curves, 32)
        assert second.ways == ref.ways
        assert second.total_energy == ref.total_energy
        assert first.dp_operations == second.dp_operations  # window size
