"""Local-decision kernel differential tests.

The fused grid pipeline (:class:`LocalOptKernel`) and the phase-level
memo (``local_mode="memoized"``) must be bit-identical to the unfused
reference :func:`optimize_local` and to ``"always_recompute"`` —
settings, energies, violation histories *and* operation accounting.
These tests are the contract; the unfused function is kept in-tree as
the oracle (the replay engine's ``LRUStack`` pattern).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SystemConfig
from repro.core.energy_curve import EnergyCurve
from repro.core.energy_model import OnlineEnergyModel
from repro.core.global_opt import ReductionTree
from repro.core.local_cache import LocalOptMemo, local_memo_key
from repro.core.local_opt import LocalOptKernel, RMCapabilities, optimize_local
from repro.core.managers import IdleRM, make_rm
from repro.core.perf_models import (
    Model1,
    Model2,
    Model3,
    ModelInputs,
    PerfectModel,
)
from repro.core.qos import QoSPolicy
from repro.power.model import PowerModel
from repro.simulator.rmsim import MulticoreRMSimulator

ALL_CAPS = [
    RMCapabilities(adapt_frequency=False, adapt_core=False),
    RMCapabilities(adapt_frequency=True, adapt_core=False),
    RMCapabilities(adapt_frequency=True, adapt_core=True),
]


def _energy_model(system: SystemConfig) -> OnlineEnergyModel:
    return OnlineEnergyModel(
        PowerModel(system.power, system.dvfs, system.memory)
    )


def _inputs(db, system, app, phase=0, setting=None):
    rec = db.records[app][phase]
    setting = setting or system.baseline_setting()
    return ModelInputs(
        counters=rec.counters_at(setting), atd=rec.atd_report(), next_record=rec
    )


def _assert_results_identical(got, ref):
    ge, re_ = got.curve.energy, ref.curve.energy
    assert np.all((ge == re_) | (np.isinf(ge) & np.isinf(re_)))
    assert np.array_equal(got.curve.ways, ref.curve.ways)
    assert np.array_equal(got.c_star, ref.c_star)
    assert np.array_equal(got.f_star, ref.f_star)
    assert np.all(
        (got.t_hat == ref.t_hat) | (np.isinf(got.t_hat) & np.isinf(ref.t_hat))
    )
    assert got.predicted_baseline_time == ref.predicted_baseline_time
    assert got.evaluations == ref.evaluations


# ---------------------------------------------------------------------------
# fused kernel vs unfused reference
# ---------------------------------------------------------------------------
class TestFusedKernelDifferential:
    @pytest.mark.parametrize("caps", ALL_CAPS, ids=lambda c: c.label)
    @pytest.mark.parametrize(
        "model_cls", [Model1, Model2, Model3, PerfectModel]
    )
    def test_bit_identical_to_reference(self, mini_db, system2, caps, model_cls):
        model = model_cls()
        em = _energy_model(system2)
        kernel = LocalOptKernel(model, em, system2, caps)
        base = system2.baseline_setting()
        for app in ("mini_csps", "mini_cips"):
            for setting in (base, base.replace(f_ghz=1.5), base.replace(ways=4)):
                for alpha in (1.0, 1.08):
                    inp = _inputs(mini_db, system2, app, setting=setting)
                    qos = QoSPolicy(alpha)
                    ref = optimize_local(inp, model, em, system2, caps, qos)
                    # Run twice: scratch buffers must not leak state.
                    kernel.run(inp, qos)
                    got = kernel.run(inp, qos)
                    _assert_results_identical(got, ref)

    def test_infeasible_ways_hold_the_baseline_setting(self, mini_db, system2):
        """The managers read every allocation's setting from the result:
        at an infeasible allocation both implementations yield the
        baseline (c, f) at that allocation."""
        em = _energy_model(system2)
        base = system2.baseline_setting()
        infeasible = 0
        for caps in ALL_CAPS:
            kernel = LocalOptKernel(Model3(), em, system2, caps)
            for app in ("mini_csps", "mini_cips"):
                for setting in (base, base.replace(ways=4)):
                    inp = _inputs(mini_db, system2, app, setting=setting)
                    for res in (
                        kernel.run(inp),
                        optimize_local(inp, Model3(), em, system2, caps),
                    ):
                        for w in system2.candidate_ways():
                            if not res.is_feasible(w):
                                infeasible += 1
                                assert res.setting_for(w) == base.replace(ways=w)
        assert infeasible

    def test_kernel_rejects_malformed_miss_curve(self, mini_db, system2):
        model = Model3()
        em = _energy_model(system2)
        kernel = LocalOptKernel(model, em, system2, ALL_CAPS[2])
        inp = _inputs(mini_db, system2, "mini_csps")
        bad = ModelInputs(
            counters=inp.counters,
            atd=type(inp.atd)(
                miss_curve=inp.atd.miss_curve[:4],
                mlp=inp.atd.mlp,
                accesses=inp.atd.accesses,
            ),
            next_record=None,
        )
        with pytest.raises(ValueError):
            kernel.run(bad)


# ---------------------------------------------------------------------------
# the phase-level memo: keys, LRU behaviour
# ---------------------------------------------------------------------------
class TestLocalMemo:
    def test_hit_returns_same_object_and_counts(self, mini_db, system2):
        memo = LocalOptMemo(capacity=8)
        inp = _inputs(mini_db, system2, "mini_csps")
        key = local_memo_key(inp, Model3(), QoSPolicy(1.0))
        assert memo.get(key) is None
        em = _energy_model(system2)
        result = optimize_local(inp, Model3(), em, system2, ALL_CAPS[2])
        memo.put(key, result)
        assert memo.get(key) is result
        assert (memo.hits, memo.misses, memo.evictions) == (1, 1, 0)
        assert memo.hit_rate == 0.5

    def test_alpha_in_key(self, mini_db, system2):
        inp = _inputs(mini_db, system2, "mini_csps")
        k1 = local_memo_key(inp, Model3(), QoSPolicy(1.0))
        k2 = local_memo_key(inp, Model3(), QoSPolicy(1.1))
        assert k1 != k2

    def test_online_models_ignore_next_record(self, mini_db, system2):
        a = _inputs(mini_db, system2, "mini_csps", phase=0)
        other = mini_db.records["mini_cips"][0]
        b = ModelInputs(counters=a.counters, atd=a.atd, next_record=other)
        assert local_memo_key(a, Model3(), QoSPolicy(1.0)) == local_memo_key(
            b, Model3(), QoSPolicy(1.0)
        )
        # ... while the oracle keys on the next interval's ground truth.
        assert local_memo_key(a, PerfectModel(), QoSPolicy(1.0)) != (
            local_memo_key(b, PerfectModel(), QoSPolicy(1.0))
        )

    def test_distinct_counters_distinct_keys(self, mini_db, system2):
        base = system2.baseline_setting()
        a = _inputs(mini_db, system2, "mini_csps", setting=base)
        b = _inputs(
            mini_db, system2, "mini_csps", setting=base.replace(f_ghz=1.5)
        )
        assert local_memo_key(a, Model3(), QoSPolicy(1.0)) != local_memo_key(
            b, Model3(), QoSPolicy(1.0)
        )

    def test_lru_eviction_order(self):
        memo = LocalOptMemo(capacity=2)
        memo.put("a", "ra")
        memo.put("b", "rb")
        assert memo.get("a") == "ra"  # refreshes a
        memo.put("c", "rc")  # evicts b (least recent)
        assert memo.get("b") is None
        assert memo.get("a") == "ra"
        assert memo.get("c") == "rc"
        assert memo.evictions == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LocalOptMemo(capacity=0)


# ---------------------------------------------------------------------------
# managers: memoized vs always_recompute, end to end
# ---------------------------------------------------------------------------
class TestLocalModeIdentity:
    @pytest.mark.parametrize("kind", ["rm1", "rm2", "rm3"])
    @pytest.mark.parametrize("model_cls", [Model1, Model3, PerfectModel])
    def test_decisions_and_accounting_identical(
        self, mini_db, system2, kind, model_cls
    ):
        rm_memo = make_rm(kind, system2, model_cls(), local_mode="memoized")
        rm_cold = make_rm(
            kind, system2, model_cls(), local_mode="always_recompute"
        )
        apps = ["mini_csps", "mini_cips", "mini_csps", "mini_csps"]
        for step, app in enumerate(apps):
            core = step % system2.n_cores
            phase = step % 2 if app == "mini_csps" else 0
            inputs = _inputs(mini_db, system2, app, phase=phase)
            d_memo = rm_memo.observe(core, inputs)
            d_cold = rm_cold.observe(core, inputs)
            assert d_memo.settings == d_cold.settings
            assert d_memo.total_predicted_energy == d_cold.total_predicted_energy
            assert d_memo.local_evaluations == d_cold.local_evaluations
            assert d_memo.dp_operations == d_cold.dp_operations

    @pytest.mark.parametrize("reduction", ["incremental", "full_rebuild"])
    @pytest.mark.parametrize("charge_overheads", [True, False])
    @pytest.mark.parametrize("kind", ["rm1", "rm3"])
    def test_full_runs_bit_identical(
        self, mini_db, system2, kind, reduction, charge_overheads
    ):
        """A complete simulation under ``memoized`` matches
        ``always_recompute`` exactly: settings history, energies,
        violations and charged RM instructions."""
        from repro.campaign.results import result_to_json

        wl = ["mini_csps", "mini_cips"]
        texts = {}
        for mode in ("memoized", "always_recompute"):
            rm = make_rm(
                kind,
                system2,
                Model3(),
                reduction=reduction,
                local_mode=mode,
            )
            res = MulticoreRMSimulator(
                mini_db,
                rm,
                charge_overheads=charge_overheads,
                collect_history=True,
            ).run(wl, horizon_intervals=10)
            texts[mode] = result_to_json(res)
        assert texts["memoized"] == texts["always_recompute"]

    def test_full_run_identical_at_tiny_lru_capacity(self, mini_db, system2):
        """Evictions only cost recomputes, never correctness."""
        from repro.campaign.results import result_to_json

        wl = ["mini_csps", "mini_cips"]
        reference = None
        for capacity in (1, 2):
            rm = make_rm("rm3", system2, Model3(), local_mode="memoized")
            rm.local_memo = LocalOptMemo(capacity)
            res = MulticoreRMSimulator(
                mini_db, rm, collect_history=True
            ).run(wl, horizon_intervals=10)
            assert rm.local_memo.evictions > 0
            text = result_to_json(res)
            if reference is None:
                rm_cold = make_rm(
                    "rm3", system2, Model3(), local_mode="always_recompute"
                )
                reference = result_to_json(
                    MulticoreRMSimulator(
                        mini_db, rm_cold, collect_history=True
                    ).run(wl, horizon_intervals=10)
                )
            assert text == reference

    def test_memo_hits_on_recurring_phases(self, mini_db, system2):
        # Pinned to the wave loop: the native engine replays recurring
        # decisions without consulting the memo at all, so the hit-rate
        # floor is a property of the observe path, not the run mode.
        rm = make_rm("rm3", system2, Model3(), local_mode="memoized")
        MulticoreRMSimulator(mini_db, rm, wave="step").run(
            ["mini_csps", "mini_cips"], horizon_intervals=10
        )
        assert rm.local_memo.hits > 0
        assert rm.local_memo.hit_rate > 0.3

    def test_reset_clears_memo_entries(self, mini_db, system2):
        rm = make_rm("rm3", system2, Model3())
        rm.observe(0, _inputs(mini_db, system2, "mini_csps"))
        assert len(rm.local_memo) == 1
        rm.reset()
        assert len(rm.local_memo) == 0
        assert rm._last_settings is None

    def test_unknown_local_mode_rejected(self, system2):
        with pytest.raises(ValueError):
            make_rm("rm3", system2, Model3(), local_mode="sometimes")

    def test_replayed_settings_map_identity(self, mini_db, system2):
        """When nothing moves, the manager returns the *same* settings
        object — the simulator's cue to skip its per-core diff."""
        rm = make_rm("rm3", system2, Model3())
        inputs = _inputs(mini_db, system2, "mini_csps")
        rm.observe(0, inputs)
        rm.observe(1, inputs)
        d1 = rm.observe(0, inputs)
        d2 = rm.observe(0, inputs)
        assert d2.settings is d1.settings


# ---------------------------------------------------------------------------
# IdleRM constant map + record memoization
# ---------------------------------------------------------------------------
class TestPlumbing:
    def test_idle_settings_map_cached_per_reset(self, mini_db, system2):
        rm = IdleRM(system2)
        inp = _inputs(mini_db, system2, "mini_csps")
        d1 = rm.observe(0, inp)
        d2 = rm.observe(1, inp)
        assert d2 is d1
        rm.reset()
        d3 = rm.observe(0, inp)
        assert d3 is not d1 and d3.settings is not d1.settings
        assert d3.settings == d1.settings

    def test_counters_and_atd_memoized(self, mini_db, system2):
        rec = mini_db.records["mini_csps"][0]
        base = system2.baseline_setting()
        assert rec.counters_at(base) is rec.counters_at(base)
        other = base.replace(ways=4)
        assert rec.counters_at(other) is rec.counters_at(other)
        assert rec.counters_at(other) is not rec.counters_at(base)
        assert rec.atd_report() is rec.atd_report()

    def test_record_and_report_fingerprints(self, mini_db):
        a = mini_db.records["mini_csps"][0]
        b = mini_db.records["mini_cips"][0]
        assert a.fingerprint == a.fingerprint
        assert a.fingerprint != b.fingerprint
        assert a.atd_report().fingerprint == a.atd_report().fingerprint
        assert a.atd_report().fingerprint != b.atd_report().fingerprint


# ---------------------------------------------------------------------------
# ReductionTree bills and way totals
# ---------------------------------------------------------------------------
def _real_curve(rng, width=15, w_min=2):
    return EnergyCurve(
        np.arange(w_min, w_min + width), rng.random(width) * 10.0
    )


class TestPinnedFirstOrder:
    """The tree's cell bills and way totals."""

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_path_operations_match_update_ops(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        curves = [_real_curve(rng, width=int(rng.integers(1, 16))) for _ in range(n)]
        tree = ReductionTree(curves, sum(c.w_min for c in curves), 2, 16)
        i = int(rng.integers(n))
        predicted = tree.path_operations(i)
        # Re-feeding the same curve must charge exactly what the caller
        # would have been billed for the recombine.
        assert tree.update(i, curves[i]) == predicted

    def test_totals_track_updates(self):
        curves = [EnergyCurve.pinned(8), EnergyCurve.pinned(8)]
        tree = ReductionTree(curves, 16, 2, 16)
        assert (tree.w_min_total, tree.w_max_total) == (16, 16)
        tree.update(0, EnergyCurve(np.arange(2, 17), np.linspace(2, 1, 15)))
        assert (tree.w_min_total, tree.w_max_total) == (10, 24)
