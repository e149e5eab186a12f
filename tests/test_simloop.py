"""Wave-batched event loop + persistent local memo tests.

The contract under test:

* the wave-batched ``step`` loop is bit-identical to the ``scalar``
  oracle on full runs — settings history, energies, violations,
  operation accounting — across RMs x models x overheads x
  reduction/local modes (the replay engine's differential pattern);
* the accelerated reduction path (budget windows, native kernel, lazy
  back-track choices) is bit-identical to the plain tree;
* the persistent local memo replays results exactly across processes,
  self-invalidates on database/RESULT_VERSION changes and never crashes
  on corrupt files;
* waves replaying a settings map by identity skip every non-boundary
  rate refresh (the ``rate_refreshes`` accounting).
"""

import numpy as np
import pytest

from repro.campaign.results import result_to_json
from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import ReductionTree, partition_ways
from repro.core.local_cache import (
    LOCAL_MEMO_ENV,
    LOCAL_MEMO_MAX_MB_ENV,
    LocalOptMemo,
    PersistentLocalMemo,
    local_memo_dir,
    local_memo_key,
    local_memo_scope,
    local_memo_stats,
    persistent_memo_for,
    prune_local_memo,
)
from repro.core.local_opt import LocalOptResult, RMCapabilities, optimize_local
from repro.core.managers import IdleRM, make_rm
from repro.core.energy_model import OnlineEnergyModel
from repro.core.perf_models import Model1, Model3, ModelInputs, PerfectModel
from repro.power.model import PowerModel
from repro.simulator.rmsim import WAVE_MODES, MulticoreRMSimulator

MODELS = {"Model1": Model1, "Model3": Model3, "Perfect": PerfectModel}


def _energy_model(system):
    return OnlineEnergyModel(PowerModel(system.power, system.dvfs, system.memory))


def _inputs(db, system, app, phase=0, setting=None):
    rec = db.records[app][phase]
    setting = setting or system.baseline_setting()
    return ModelInputs(
        counters=rec.counters_at(setting), atd=rec.atd_report(), next_record=rec
    )


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
        """Same app on every core: every boundary is a full wave."""
        for kind in ("idle", "rm3"):
            texts = {}
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
            _assert_all_modes_equal(texts)

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
        assert MulticoreRMSimulator(mini_db, IdleRM(system2)).wave == "scalar"
        for removed in ("batched", "epsilon", "native"):
            with pytest.raises(ValueError):
                MulticoreRMSimulator(mini_db, IdleRM(system2), wave=removed)

    def test_precompute_wave_seeds_memo(self, mini_db, system2):
        rm = make_rm("rm3", system2, Model3())
        wave = [
            (0, _inputs(mini_db, system2, "mini_csps")),
            (1, _inputs(mini_db, system2, "mini_cips")),
            (0, _inputs(mini_db, system2, "mini_csps")),  # duplicate key
        ]
        batched = rm.precompute_wave(wave)
        assert batched == 2
        assert rm.local_memo.seeds == 2
        # The seeded results replay on observe (hits, not misses) and
        # equal the scalar reference bit for bit.
        d0 = rm.observe(0, wave[0][1])
        assert rm.local_memo.hits == 1
        ref = optimize_local(
            wave[0][1],
            rm.perf_model,
            rm.energy_model,
            system2,
            rm.capabilities,
            rm.qos_for(0),
        )
        curve0 = rm._cores[0].result.curve
        assert np.all(
            (curve0.energy == ref.curve.energy)
            | (np.isinf(curve0.energy) & np.isinf(ref.curve.energy))
        )
        assert rm.precompute_wave(wave) == 0  # everything already memoized
        assert d0.settings is not None

    def test_idle_rm_skips_wave_precompute(self, mini_db, system2):
        rm = IdleRM(system2)
        assert rm.wants_wave_precompute is False
        assert rm.precompute_wave([(0, _inputs(mini_db, system2, "mini_csps"))]) == 0


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


# ---------------------------------------------------------------------------
# the persistent local memo
# ---------------------------------------------------------------------------
@pytest.fixture()
def memo_env(tmp_path, monkeypatch):
    monkeypatch.setenv(LOCAL_MEMO_ENV, str(tmp_path / "memo"))
    return tmp_path / "memo"


def _result_for(db, system, app="mini_csps"):
    inputs = _inputs(db, system, app)
    caps = RMCapabilities(adapt_frequency=True, adapt_core=True)
    model = Model3()
    result = optimize_local(
        inputs, model, _energy_model(system), system, caps
    )
    key = local_memo_key(inputs, model, QoSPolicy_1())
    return key, result


def QoSPolicy_1():
    from repro.core.qos import QoSPolicy

    return QoSPolicy(1.0)


class TestPersistentMemo:
    def test_roundtrip_bit_exact(self, mini_db, system2, memo_env):
        key, result = _result_for(mini_db, system2)
        store = PersistentLocalMemo(memo_env, "scope0")
        assert store.get(key) is None
        store.put(key, result)
        replay = store.get(key)
        assert replay is not result
        assert np.all(
            (replay.curve.energy == result.curve.energy)
            | (np.isinf(replay.curve.energy) & np.isinf(result.curve.energy))
        )
        assert np.array_equal(replay.curve.ways, result.curve.ways)
        assert np.array_equal(replay.c_star, result.c_star)
        assert np.array_equal(replay.f_star, result.f_star)
        assert np.all(
            (replay.t_hat == result.t_hat)
            | (np.isinf(replay.t_hat) & np.isinf(result.t_hat))
        )
        assert replay.predicted_baseline_time == result.predicted_baseline_time
        assert replay.evaluations == result.evaluations
        assert replay.c_star.dtype == result.c_star.dtype

    def test_scope_isolates_database_and_version(self, mini_db, system2, memo_env):
        """A different database fingerprint or RESULT_VERSION yields a
        different scope: stale entries are simply never addressed."""
        key, result = _result_for(mini_db, system2)
        scope_a = local_memo_scope("db-fp-A", "Model3", "w+f+c")
        scope_b = local_memo_scope("db-fp-B", "Model3", "w+f+c")
        assert scope_a != scope_b
        store_a = PersistentLocalMemo(memo_env, scope_a)
        store_a.put(key, result)
        assert PersistentLocalMemo(memo_env, scope_b).get(key) is None
        # RESULT_VERSION folds into the scope.
        import repro.campaign.spec as spec_mod

        orig = spec_mod.RESULT_VERSION
        try:
            spec_mod.RESULT_VERSION = orig + 1
            bumped = local_memo_scope("db-fp-A", "Model3", "w+f+c")
        finally:
            spec_mod.RESULT_VERSION = orig
        assert bumped != scope_a
        assert PersistentLocalMemo(memo_env, bumped).get(key) is None
        # ... and the stale file ages out under the LRU cap.
        stats = local_memo_stats()
        assert stats["files"] == 1
        outcome = prune_local_memo(max_mb=1e-9)
        assert outcome["removed_files"] == 1
        assert local_memo_stats()["files"] == 0

    def test_corrupt_and_truncated_files_fall_back_cold(
        self, mini_db, system2, memo_env
    ):
        key, result = _result_for(mini_db, system2)
        store = PersistentLocalMemo(memo_env, "scopeX")
        store.put(key, result)
        (path,) = list(memo_env.glob("*.json"))
        path.write_text(path.read_text()[: 40])  # truncate mid-JSON
        assert store.get(key) is None
        path.write_text('{"w_min": 2, "energy": "nope"}')  # wrong types
        assert store.get(key) is None
        path.write_text("not json at all")
        assert store.get(key) is None
        # A fresh put repairs the entry.
        store.put(key, result)
        assert store.get(key) is not None

    def test_ad_hoc_keys_stay_in_memory_only(self, memo_env):
        memo = LocalOptMemo(capacity=4)
        memo.attach_store(PersistentLocalMemo(memo_env, "s"))
        memo.put("ad-hoc-key", "not-a-result")  # type: ignore[arg-type]
        assert memo.get("ad-hoc-key") == "not-a-result"
        # A canonically-shaped key with a non-numeric field must degrade
        # the same way (struct.pack failure -> in-memory only), not raise.
        class _Counters:
            setting = type("S", (), {"core": 1, "f_ghz": None, "ways": 4})()
            n_instructions = time_s = t1_cycles = mem_time_s = 1.0
            misses_current = lm_current = llc_accesses = 1.0
            core_dynamic_j = core_static_j = 1.0

        bad_key = (_Counters(), "atd-fp", None, 1.0)
        memo.put(bad_key, "also-not-a-result")  # type: ignore[arg-type]
        assert memo.get(bad_key) == "also-not-a-result"
        assert local_memo_stats()["files"] == 0

    def test_two_tier_get_promotes_and_counts(self, mini_db, system2, memo_env):
        key, result = _result_for(mini_db, system2)
        first = LocalOptMemo()
        first.attach_store(PersistentLocalMemo(memo_env, "tier"))
        first.put(key, result)
        # A fresh memo (new process) starts cold in memory but warm on disk.
        second = LocalOptMemo()
        second.attach_store(PersistentLocalMemo(memo_env, "tier"))
        assert len(second) == 0
        replay = second.get(key)
        assert replay is not None
        assert second.hits == 1 and second.misses == 0
        assert second.store.disk_hits == 1
        assert len(second) == 1  # promoted
        assert second.get(key) is replay  # now purely in-memory
        assert second.store.disk_hits == 1

    def test_peek_counts_nothing(self, mini_db, system2, memo_env):
        key, result = _result_for(mini_db, system2)
        memo = LocalOptMemo()
        memo.attach_store(PersistentLocalMemo(memo_env, "tier"))
        assert memo.peek(key) is None
        memo.seed(key, result)
        assert memo.peek(key) is result
        assert (memo.hits, memo.misses, memo.seeds) == (0, 0, 1)

    def test_persistent_memo_for_env_gate(self, mini_db, monkeypatch):
        monkeypatch.delenv(LOCAL_MEMO_ENV, raising=False)
        assert persistent_memo_for(mini_db, "Model3", "w+f+c") is None
        assert local_memo_dir() is None

    def test_cap_env_validation(self, monkeypatch):
        monkeypatch.setenv(LOCAL_MEMO_MAX_MB_ENV, "not-a-number")
        with pytest.raises(ValueError):
            prune_local_memo()

    def test_warm_restart_end_to_end_bit_identical(
        self, mini_db, system2, memo_env
    ):
        """Fresh managers (as a new process would build) replay the
        persistent tier: identical results, hot hit rate, no recompute
        of the grid pipeline for known phases."""
        def one_run():
            rm = make_rm("rm3", system2, Model3())
            sim = MulticoreRMSimulator(
                mini_db, rm, collect_history=True, wave="step"
            )
            res = sim.run(["mini_csps", "mini_cips"], horizon_intervals=10)
            return result_to_json(res), rm

        cold_text, cold_rm = one_run()
        assert cold_rm.local_memo.store is not None
        assert cold_rm.local_memo.store.writes > 0
        files = local_memo_stats()["files"]
        assert files > 0
        warm_text, warm_rm = one_run()
        assert warm_text == cold_text
        assert warm_rm.local_memo.store.disk_hits > 0
        assert warm_rm.local_memo.store.writes == 0  # nothing new to store
        total = warm_rm.local_memo.hits + warm_rm.local_memo.misses
        assert warm_rm.local_memo.hits / total >= 0.9
        # The scalar oracle ignores the persistent tier entirely.
        rm = make_rm("rm3", system2, Model3())
        sim = MulticoreRMSimulator(
            mini_db, rm, collect_history=True, wave="scalar"
        )
        scalar_text = result_to_json(
            sim.run(["mini_csps", "mini_cips"], horizon_intervals=10)
        )
        assert scalar_text == cold_text
        assert rm.local_memo.store is None

    def test_campaign_prunes_local_memo(self, mini_db, system2, memo_env, monkeypatch):
        key, result = _result_for(mini_db, system2)
        PersistentLocalMemo(memo_env, "old").put(key, result)
        assert local_memo_stats()["files"] == 1
        monkeypatch.setenv(LOCAL_MEMO_MAX_MB_ENV, "0.0000001")
        # (The executor runs this same prune after every campaign with
        # pending simulations; exercised directly here because campaign
        # runs need the canonical suite database.)
        outcome = prune_local_memo()
        assert outcome["removed_files"] == 1


# ---------------------------------------------------------------------------
# campaign / spec plumbing
# ---------------------------------------------------------------------------
class TestSpecWaveKnob:
    def test_wave_not_in_fingerprint(self):
        from repro.campaign.spec import RunSpec

        a = RunSpec(seed=1, n_cores=2, rm_kind="idle", model=None, apps=("x", "y"))
        b = RunSpec(
            seed=1,
            n_cores=2,
            rm_kind="idle",
            model=None,
            apps=("x", "y"),
            wave="scalar",
        )
        # Fingerprints are computed lazily and need the database key;
        # compare payload-level equality via the public invariant: the
        # wave field must not reach the fingerprint payload.
        import inspect

        src = inspect.getsource(type(a).fingerprint.fget)
        assert "wave" not in src
        assert a.wave is None and b.wave == "scalar"

    def test_wave_validated(self):
        from repro.campaign.spec import RunSpec

        with pytest.raises(ValueError):
            RunSpec(
                seed=1,
                n_cores=1,
                rm_kind="idle",
                model=None,
                apps=("x",),
                wave="sometimes",
            )

    def test_label_carries_wave(self):
        from repro.campaign.spec import RunSpec

        spec = RunSpec(
            seed=1,
            n_cores=1,
            rm_kind="idle",
            model=None,
            apps=("x",),
            wave="scalar",
        )
        assert "wave=scalar" in spec.label()
