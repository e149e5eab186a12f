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
  rate refresh (the ``rate_refreshes`` accounting);
* generated full runs at 2-32 cores agree between the loops, and the
  scalar oracle runs none of the wave loop's fast paths; nor do the
  manager-mode oracles (``always_recompute``, ``full_rebuild``) run
  theirs.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hsettings
from hypothesis import strategies as st

from repro import settings
from repro.campaign.results import result_to_json
from repro.config import default_system
from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import ReductionTree, partition_ways
from repro.core.local_cache import LocalOptMemo
from repro.core.managers import (
    LOCAL_MODES,
    REDUCTION_MODES,
    IdleRM,
    ResourceManager,
    make_rm,
)
from repro.core.perf_models import Model1, Model2, Model3, PerfectModel
from repro.database.builder import SimDatabase
from repro.simulator import rmsim
from repro.simulator.rmsim import WAVE_MODES, MulticoreRMSimulator
from repro.workloads.suite import spec_suite

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
# the settings diff adopts equal settings, never a changed one
# ---------------------------------------------------------------------------
class TestDiffSettings:
    @pytest.mark.parametrize("n", [4, 12])
    def test_equal_adopted_changed_left_to_caller(self, system2, n):
        """Equal-valued fresh objects are adopted, so the identity
        pre-pass holds for them at the next map; a changed core keeps its
        old setting for the caller to price.  A narrow (``n = 4``) and a
        wide (``n = 12``) system take the same per-candidate compare."""
        base = system2.baseline_setting()
        st_ = rmsim._CoreStates(n)
        for i in range(n):
            st_.settings[i] = base
        fresh = {i: base.replace() for i in range(n)}
        fresh[1] = base.replace(ways=4)
        assert st_.diff_settings(fresh) == [1]
        assert st_.settings[1] is base
        assert all(st_.settings[i] is fresh[i] for i in range(n) if i != 1)
        assert st_.diff_settings(fresh) == [1]


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
        """The fallback tree, with the compiled update patched to raise,
        matches the tree built on the compiled kernel (when there is one)."""
        rng = np.random.default_rng(13)
        curves = _random_curves(rng, 8)
        budget = 64
        fresh = _random_curves(rng, 1)[0]
        native = ReductionTree(curves, acceleration=(budget, 2, 16))
        ops_a = native.update(3, fresh)
        a = native.solve(budget)
        monkeypatch.setattr(_native_opt, "_lib", None)
        monkeypatch.setattr(_native_opt, "_lib_failed", True)
        monkeypatch.setattr(ReductionTree, "_run_native", _raise)
        fallback = ReductionTree(curves, acceleration=(budget, 2, 16))
        ops_b = fallback.update(3, fresh)
        b = fallback.solve(budget)
        assert ops_a == ops_b
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


# ---------------------------------------------------------------------------
# generated full runs: step vs scalar at 2-32 cores
# ---------------------------------------------------------------------------
SUITE_APPS = tuple(sorted(app.name for app in spec_suite()))
GEN_MODELS = {
    "Model1": Model1, "Model2": Model2, "Model3": Model3, "Perfect": PerfectModel,
}

#: Bounded and derandomized in tier-1; ``--hypothesis-profile=wide``
#: (tests/conftest.py) runs the profile's wider randomized sweep instead.
GENERATED_RUNS = (
    hsettings(deadline=None)
    if hsettings.get_current_profile_name() == "wide"
    else hsettings(max_examples=12, derandomize=True, deadline=None)
)

#: One of paper-scale ``ext-scaling``'s 16-core mixes (seed 2020).
MIX16 = (
    "cactusADM", "gromacs", "perlbench", "leslie3d", "leslie3d", "soplex",
    "wrf", "namd", "soplex", "sphinx3", "mcf", "sphinx3", "sphinx3",
    "omnetpp", "soplex", "omnetpp",
)


@st.composite
def full_runs(draw):
    n_cores = draw(st.integers(2, 32))
    return {
        "apps": tuple(
            draw(st.lists(
                st.sampled_from(SUITE_APPS), min_size=n_cores, max_size=n_cores
            ))
        ),
        "kind": draw(st.sampled_from(("idle", "rm1", "rm2", "rm3"))),
        "model": draw(st.sampled_from(sorted(GEN_MODELS))),
        "overheads": draw(st.booleans()),
        "reduction": draw(st.sampled_from(REDUCTION_MODES)),
        "local_mode": draw(st.sampled_from(LOCAL_MODES)),
        "horizon": draw(st.integers(2, 6)),
    }


def _rebound(full_db, n_cores):
    """``full_db``'s records bound to an ``n_cores`` system, the way
    :func:`repro.campaign.database.get_database` rebinds them."""
    return SimDatabase(
        system=default_system(n_cores), apps=full_db.apps, records=full_db.records
    )


def _generated_run(db, run, wave):
    if run["kind"] == "idle":
        rm = make_rm("idle", db.system)
    else:
        rm = make_rm(
            run["kind"],
            db.system,
            GEN_MODELS[run["model"]](),
            reduction=run["reduction"],
            local_mode=run["local_mode"],
        )
    sim = MulticoreRMSimulator(
        db, rm, charge_overheads=run["overheads"], collect_history=True, wave=wave
    )
    result = sim.run(list(run["apps"]), horizon_intervals=run["horizon"])
    memo = rm.local_memo
    return result, (memo.hits, memo.misses) if memo is not None else None


class TestGeneratedRuns:
    @given(run=full_runs())
    @example(run={
        "apps": MIX16, "kind": "rm3", "model": "Model3", "overheads": True,
        "reduction": "incremental", "local_mode": "memoized", "horizon": 2,
    })
    @GENERATED_RUNS
    def test_step_matches_scalar(self, full_db, run):
        db = _rebound(full_db, len(run["apps"]))
        scalar, scalar_memo = _generated_run(db, run, "scalar")
        step, step_memo = _generated_run(db, run, "step")
        assert result_to_json(step) == result_to_json(scalar)
        assert step_memo == scalar_memo
        for energy in step.per_core_energy:
            assert energy.core_dynamic_j >= 0 and energy.core_static_j >= 0
            assert energy.memory_j >= 0 and energy.overhead_j >= 0
        assert step.uncore_j >= 0
        assert len(step.violations) <= step.qos_checks
        assert step.rm_invocations == step.intervals_completed


def _raise(*args, **kwargs):
    raise AssertionError("an oracle ran a fast path patched out for it")


def test_scalar_oracle_runs_no_wave_fast_path(full_db, monkeypatch):
    """``wave="scalar"`` completes with every wave-only path patched to
    raise — the compiled event, the scratch advance, the settings diff,
    the rates memo, the compiled tree update, the wave loop with its
    per-run tables and the manager's interned memo keys — and equals the
    unpatched step result."""
    db = _rebound(full_db, 16)
    run = {
        "apps": MIX16, "kind": "rm3", "model": "Model3", "overheads": True,
        "reduction": "incremental", "local_mode": "memoized", "horizon": 3,
    }
    step, _ = _generated_run(db, run, "step")
    monkeypatch.setattr(rmsim._CoreStates, "next_event", _raise)
    monkeypatch.setattr(rmsim, "advance_cores_wave", _raise)
    monkeypatch.setattr(rmsim._CoreStates, "diff_settings", _raise)
    monkeypatch.setattr(rmsim._CoreStates, "refresh_rates_memo", _raise)
    monkeypatch.setattr(ReductionTree, "_run_native", _raise)
    monkeypatch.setattr(rmsim.MulticoreRMSimulator, "_loop_wave", _raise)
    monkeypatch.setattr(ResourceManager, "_interned_memo_key", _raise)
    scalar, _ = _generated_run(db, run, "scalar")
    assert result_to_json(scalar) == result_to_json(step)


@pytest.mark.parametrize(
    "mode,fast_path,overheads",
    [
        (("local_mode", "always_recompute"), (LocalOptMemo, ("get", "put")), True),
        (
            ("reduction", "full_rebuild"),
            (ReductionTree, ("__init__", "update")),
            False,
        ),
    ],
    ids=["always_recompute", "full_rebuild"],
)
def test_manager_mode_oracle_runs_no_fast_path(
    full_db, monkeypatch, mode, fast_path, overheads
):
    """Each manager-mode oracle completes a 4-core RM3/Model3 run with
    its switch's fast path patched to raise — the local-result memo, or
    the persistent reduction tree — and equals the default run.  A full
    rebuild bills every combine, so that pair runs without overheads."""
    db = _rebound(full_db, 4)
    run = {
        "apps": ("h264ref", "cactusADM", "bzip2", "hmmer"), "kind": "rm3",
        "model": "Model3", "overheads": overheads, "reduction": "incremental",
        "local_mode": "memoized", "horizon": None,
    }
    default, _ = _generated_run(db, run, "step")
    owner, names = fast_path
    for name in names:
        monkeypatch.setattr(owner, name, _raise)
    oracle, _ = _generated_run(db, {**run, mode[0]: mode[1]}, "step")
    assert oracle.intervals_completed > 0
    assert result_to_json(oracle) == result_to_json(default)
