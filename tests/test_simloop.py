"""Wave event loop tests.

The contract under test:

* the wave ``step`` loop is bit-identical to the ``scalar``
  oracle on full runs — settings history, energies, violations,
  operation accounting — across RMs x models x overheads x
  reduction/local modes (the replay engine's differential pattern);
* both loops make the same local-decision memo traffic;
* the reduction tree (budget windows, native kernel, lazy back-track
  choices) selects what the stateless :func:`partition_ways` selects
  and bills the nominal cells of the unwindowed combines;
* waves replaying a settings map by identity skip every non-boundary
  rate refresh (the ``rate_refreshes`` accounting);
* generated full runs at 2-32 cores agree between the loops, and
  between the default manager and its oracle modes (``full_rebuild``
  with ``always_recompute``);
* the scalar oracle runs none of the wave loop's fast paths, and the
  manager-mode oracles (``always_recompute``, ``full_rebuild``) none of
  theirs;
* the wave loop without its compiled event step runs the scalar loop's
  step and equals the scalar loop; with it, only finish-adjacent events
  (at most one per core) take the reference advance.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given
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
from repro.util import nativebuild
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
    def test_idle_wave_refreshes_boundary_core_only(self, mini_db, system2):
        """Idle replays its settings map by identity at every boundary:
        the wave path must refresh exactly one core per event (the
        boundary core, whose record changed) beyond the initial setup."""
        import repro.simulator.rmsim as rmsim_mod

        captured = {}
        orig = rmsim_mod._CoreStates

        class Probe(orig):
            def __init__(self, n):
                super().__init__(n)
                captured["st"] = self

        rmsim_mod._CoreStates = Probe
        try:
            sim = MulticoreRMSimulator(mini_db, IdleRM(system2), wave="step")
            result = sim.run(["mini_csps", "mini_cips"], horizon_intervals=8)
        finally:
            rmsim_mod._CoreStates = orig
        # Setup refreshes each core once; every boundary (one per
        # completed interval) refreshes exactly one.
        n = system2.n_cores
        assert captured["st"].rate_refreshes == n + result.intervals_completed

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
# the reduction tree against the stateless rebuild and the nominal bill
# ---------------------------------------------------------------------------
def _random_curves(rng, n, width=15, w_min=2):
    return [
        EnergyCurve(
            np.arange(w_min, w_min + width), rng.random(width) * 10.0
        )
        for _ in range(n)
    ]


def _nominal_bill(curves, budget):
    """What the tree bills, from the leaves alone: the cells of every
    unwindowed combine below the root, each leaf's path share of them,
    and the root's candidate left allocations at ``budget``.  Nodes pair
    level by level with an odd one carried up, as ``partition_ways``
    pairs them, whose bill is the build plus the root's ``la * lb``."""
    # (width, w_min, w_max, leaves) per node of the current level
    level = [
        (c.energy.size, c.w_min, c.w_max, {i}) for i, c in enumerate(curves)
    ]
    combines = []
    while len(level) > 1:
        pairs = list(zip(level[0::2], level[1::2]))
        if len(level) == 2:
            (_, l_min, l_max, _), (_, r_min, r_max, _) = pairs[0]
            window = min(l_max, budget - r_min) - max(l_min, budget - r_max) + 1
        nxt = []
        for a, b in pairs:
            combines.append((a[0] * b[0], a[3] | b[3]))
            nxt.append((a[0] + b[0] - 1, a[1] + b[1], a[2] + b[2], a[3] | b[3]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    root_cells, _ = combines.pop()  # evaluated, never combined
    build = sum(cells for cells, _ in combines)
    path = [
        sum(cells for cells, leaves in combines if i in leaves)
        for i in range(len(curves))
    ]
    assert build + root_cells == partition_ways(curves, budget).dp_operations
    return build, path, window


class TestAcceleratedTree:
    """The budget-windowed tree on the native kernel (or its NumPy
    path) against :func:`partition_ways` — ways and energy — and against
    the nominal cell bill of :func:`_nominal_bill`."""

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_solve_bit_identical_to_plain(self, n):
        """``plain``: the stateless full rebuild."""
        rng = np.random.default_rng(7)
        curves = _random_curves(rng, n)
        budget = 8 * n
        tree = ReductionTree(curves, budget, 2, 16)
        ref = partition_ways(curves, budget)
        build, _, window = _nominal_bill(curves, budget)
        got = tree.solve()
        assert got.ways == ref.ways
        assert got.total_energy == ref.total_energy
        assert got.dp_operations == window
        assert tree.build_operations == build

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_updates_bit_identical_and_bill_invariant(self, n):
        rng = np.random.default_rng(11)
        curves = _random_curves(rng, n)
        budget = 8 * n
        tree = ReductionTree(curves, budget, 2, 16)
        for step in range(2 * n):
            i = int(rng.integers(n))
            # Every third update narrows the leaf, so nominal widths move.
            width = 15 if step % 3 else int(rng.integers(8, 15))
            fresh = _random_curves(rng, 1, width=width)[0]
            curves[i] = fresh
            _, path, window = _nominal_bill(curves, budget)
            assert tree.update(i, fresh) == path[i]
            assert tree.path_operations(i) == path[i]
            got = tree.solve()
            stateless = partition_ways(curves, budget)
            assert got.ways == stateless.ways
            assert got.total_energy == stateless.total_energy
            assert got.dp_operations == window

    def test_infeasible_points_handled(self):
        rng = np.random.default_rng(3)
        curves = _random_curves(rng, 4)
        for c in curves:
            c.energy[rng.random(c.energy.size) < 0.4] = np.inf
        budget = 32
        ref = partition_ways(curves, budget)
        got = ReductionTree(curves, budget, 2, 16).solve()
        assert got.ways == ref.ways
        assert got.total_energy == ref.total_energy

    def test_pinned_warmup_states(self):
        """The managers' actual build state: pinned leaves + one real."""
        for n in (4, 8):
            curves = [EnergyCurve.pinned(8) for _ in range(n)]
            curves[n // 2] = _random_curves(np.random.default_rng(5), 1)[0]
            budget = 8 * n
            ref = partition_ways(curves, budget)
            tree = ReductionTree(curves, budget, 2, 16)
            got = tree.solve()
            assert got.ways == ref.ways
            assert got.total_energy == ref.total_energy
            assert tree.build_operations == _nominal_bill(curves, budget)[0]

    def test_numpy_fallback_matches_native(self, monkeypatch):
        """The fallback tree, with the compiled update patched to raise,
        matches the tree built on the compiled kernel (when there is one)."""
        rng = np.random.default_rng(13)
        curves = _random_curves(rng, 8)
        budget = 64
        fresh = _random_curves(rng, 1)[0]
        native = ReductionTree(curves, budget, 2, 16)
        ops_a = native.update(3, fresh)
        a = native.solve()
        monkeypatch.setitem(nativebuild._loaded, _native_opt.BUILD[0], None)
        monkeypatch.setattr(ReductionTree, "_run_native", _raise)
        fallback = ReductionTree(curves, budget, 2, 16)
        ops_b = fallback.update(3, fresh)
        b = fallback.solve()
        assert ops_a == ops_b
        assert a.ways == b.ways
        assert a.total_energy == b.total_energy

    def test_strided_leaf_curves_are_repacked(self):
        """Caller-supplied strided energy views must not feed the raw-
        pointer kernels: the tree repacks them at install and stays
        bit-identical to the stateless rebuild."""
        rng = np.random.default_rng(17)
        backing = rng.random(30) * 10.0
        strided = EnergyCurve(np.arange(2, 17), backing[::2])
        assert not strided.energy.flags.c_contiguous
        curves = _random_curves(rng, 4)
        curves[1] = strided
        budget = 32
        ref = partition_ways(curves, budget)
        got = ReductionTree(curves, budget, 2, 16).solve()
        assert got.ways == ref.ways
        assert got.total_energy == ref.total_energy
        # ... and through update() on an already-built tree too.
        tree = ReductionTree(curves, budget, 2, 16)
        strided2 = EnergyCurve(np.arange(2, 17), backing[::-2][::-1][:15])
        tree.update(2, strided2)
        curves[2] = strided2
        ref = partition_ways(curves, budget)
        got2 = tree.solve()
        assert got2.ways == ref.ways
        assert got2.total_energy == ref.total_energy

    def test_accelerated_budget_guard(self):
        """The budget is fixed at construction: leaves that can no
        longer absorb it are rejected, on the update or the solve."""
        curves = _random_curves(np.random.default_rng(1), 4)
        tree = ReductionTree(curves, 32, 2, 16)
        tree.solve()
        with pytest.raises(ValueError):
            for i in range(4):
                tree.update(i, EnergyCurve.pinned(2))
            tree.solve()

    def test_acceleration_validation(self):
        curves = _random_curves(np.random.default_rng(1), 2)
        with pytest.raises(ValueError):
            ReductionTree(curves, 16, 0, 16)
        with pytest.raises(ValueError):
            ReductionTree(curves, 16, 8, 4)
        with pytest.raises(ValueError):
            ReductionTree(curves, 0, 2, 16)

    def test_eval_cache_invalidated_by_update(self):
        rng = np.random.default_rng(2)
        curves = _random_curves(rng, 4)
        tree = ReductionTree(curves, 32, 2, 16)
        first = tree.solve()
        fresh = _random_curves(rng, 1)[0]
        curves[0] = fresh
        tree.update(0, fresh)
        second = tree.solve()
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

    @given(run=full_runs())
    @example(run={
        "apps": MIX16, "kind": "rm3", "model": "Model3", "overheads": False,
        "reduction": "incremental", "local_mode": "memoized", "horizon": 2,
    })
    @GENERATED_RUNS
    def test_manager_matches_its_oracle(self, full_db, run):
        """Each drawn non-Idle run under the default manager and under
        its oracle modes — ``full_rebuild`` (the stateless reduction,
        every core's setting derived afresh) with ``always_recompute`` —
        without overheads, since a full rebuild bills every combine.
        Both loops drive the same manager path, so this is the check on
        its incremental fast paths: the windowed tree, the memo and the
        settings replay."""
        assume(run["kind"] != "idle")
        db = _rebound(full_db, len(run["apps"]))
        run = {**run, "overheads": False}
        default, _ = _generated_run(
            db, {**run, "reduction": "incremental", "local_mode": "memoized"},
            "step",
        )
        oracle, _ = _generated_run(
            db,
            {**run, "reduction": "full_rebuild", "local_mode": "always_recompute"},
            "step",
        )
        assert result_to_json(oracle) == result_to_json(default)


def _raise(*args, **kwargs):
    raise AssertionError("an oracle ran a fast path patched out for it")


#: The 16-core RM3/Model3 run the loop-path tests below simulate.
RUN16 = {
    "apps": MIX16, "kind": "rm3", "model": "Model3", "overheads": True,
    "reduction": "incremental", "local_mode": "memoized", "horizon": 3,
}


def test_scalar_oracle_runs_no_wave_fast_path(full_db, monkeypatch):
    """``wave="scalar"`` completes with every wave-only path patched to
    raise — the event step, the settings diff, the rates memo and the
    wave loop with its per-run tables — and equals the unpatched step
    result.  (The manager's path is the same under both loops.)"""
    db = _rebound(full_db, 16)
    step, _ = _generated_run(db, RUN16, "step")
    monkeypatch.setattr(rmsim._CoreStates, "next_event", _raise)
    monkeypatch.setattr(rmsim._CoreStates, "diff_settings", _raise)
    monkeypatch.setattr(rmsim._CoreStates, "refresh_rates_memo", _raise)
    monkeypatch.setattr(rmsim.MulticoreRMSimulator, "_loop_wave", _raise)
    scalar, _ = _generated_run(db, RUN16, "scalar")
    assert result_to_json(scalar) == result_to_json(step)


def _count_reference_advances(monkeypatch):
    """Wrap :func:`rmsim.advance_cores_reference`; the returned list
    gets the number of cores each call finished."""
    finished_per_call = []
    reference = rmsim.advance_cores_reference

    def counted(st_, dt, horizon):
        before = int(np.count_nonzero(st_.finished))
        reference(st_, dt, horizon)
        finished_per_call.append(int(np.count_nonzero(st_.finished)) - before)

    monkeypatch.setattr(rmsim, "advance_cores_reference", counted)
    return finished_per_call


def test_wave_loop_without_event_kernel_matches_scalar(full_db, monkeypatch):
    """The wave loop on a state container without ``wave_event`` (a host
    without a compiler; the manager's tree stays compiled when there is
    one) runs the scalar loop's step at every event and equals the
    scalar loop."""
    db = _rebound(full_db, 16)
    scalar, _ = _generated_run(db, RUN16, "scalar")

    class WithoutKernel(rmsim._CoreStates):
        def __init__(self, n):
            super().__init__(n)
            self._evlib = None

    monkeypatch.setattr(rmsim, "_CoreStates", WithoutKernel)
    advances = _count_reference_advances(monkeypatch)
    step, _ = _generated_run(db, RUN16, "step")
    assert len(advances) == step.intervals_completed
    assert result_to_json(step) == result_to_json(scalar)


@pytest.mark.skipif(
    not _native_opt.available(), reason="compiled kernels unavailable"
)
def test_compiled_wave_loop_hands_off_once_per_core_at_most(full_db, monkeypatch):
    """On the compiled event step only finish-adjacent events advance
    through the reference: at most one per core per run, each finishing
    at least one core, and together every core."""
    db = _rebound(full_db, 16)
    advances = _count_reference_advances(monkeypatch)
    step, _ = _generated_run(db, RUN16, "step")
    assert step.intervals_completed > 16
    assert 1 <= len(advances) <= 16
    assert min(advances) >= 1
    assert sum(advances) == 16


@pytest.mark.parametrize(
    "mode,fast_paths,overheads",
    [
        (
            ("local_mode", "always_recompute"),
            [(LocalOptMemo, "get"), (LocalOptMemo, "put")],
            True,
        ),
        (
            ("reduction", "full_rebuild"),
            [
                (ReductionTree, "__init__"),
                (ReductionTree, "update"),
                (ResourceManager, "_replay_settings"),
            ],
            False,
        ),
    ],
    ids=["always_recompute", "full_rebuild"],
)
def test_manager_mode_oracle_runs_no_fast_path(
    full_db, monkeypatch, mode, fast_paths, overheads
):
    """Each manager-mode oracle completes a 4-core RM3/Model3 run with
    its switch's fast paths patched to raise — the local-result memo, or
    the persistent reduction tree and the incremental settings replay —
    and equals the default run.  A full rebuild bills every combine, so
    that pair runs without overheads."""
    db = _rebound(full_db, 4)
    run = {
        "apps": ("h264ref", "cactusADM", "bzip2", "hmmer"), "kind": "rm3",
        "model": "Model3", "overheads": overheads, "reduction": "incremental",
        "local_mode": "memoized", "horizon": None,
    }
    default, _ = _generated_run(db, run, "step")
    for owner, name in fast_paths:
        monkeypatch.setattr(owner, name, _raise)
    oracle, _ = _generated_run(db, {**run, mode[0]: mode[1]}, "step")
    assert oracle.intervals_completed > 0
    assert result_to_json(oracle) == result_to_json(default)
