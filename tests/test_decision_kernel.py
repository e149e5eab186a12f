"""Decision-kernel differential tests.

The incremental kernel (vectorised :func:`combine_pair`, persistent
:class:`ReductionTree`, struct-of-arrays simulator advance) must be
bit-identical to the reference implementations it replaced — selected
allocations, settings, predicted energies and (in ``full_rebuild`` mode)
``dp_operations``.  These tests are the contract: the scalar combine
loop, the stateless :func:`partition_ways` and the scalar advance loop
are kept in-tree as oracles (the replay engine's ``LRUStack`` pattern).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import _native_opt
from repro.core.energy_curve import EnergyCurve
from repro.core.global_opt import (
    ReductionTree,
    combine_pair,
    combine_pair_reference,
    partition_ways,
)
from repro.core.managers import make_rm
from repro.core.perf_models import Model1, Model3, ModelInputs, PerfectModel
from repro.simulator import rmsim
from repro.simulator.rmsim import (
    MulticoreRMSimulator,
    _CoreStates,
    advance_cores,
    advance_cores_reference,
    advance_cores_wave,
)


def random_curve(rng, width=15, w_min=2, inf_frac=0.25):
    energy = rng.random(width) * 10.0
    energy[rng.random(width) < inf_frac] = np.inf
    return EnergyCurve(np.arange(w_min, w_min + width), energy)


# ---------------------------------------------------------------------------
# combine_pair: vectorised vs scalar reference
# ---------------------------------------------------------------------------
class TestCombineDifferential:
    @given(
        la=st.integers(1, 18),
        lb=st.integers(1, 18),
        seed=st.integers(0, 10_000),
        inf_frac=st.floats(0.0, 0.9),
    )
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_reference(self, la, lb, seed, inf_frac):
        rng = np.random.default_rng(seed)
        a = random_curve(rng, la, w_min=2, inf_frac=inf_frac)
        b = random_curve(rng, lb, w_min=3, inf_frac=inf_frac)
        got, got_choice, got_ops = combine_pair(a, b)
        ref, ref_choice, ref_ops = combine_pair_reference(a, b)
        assert np.array_equal(got.ways, ref.ways)
        # bit-identical incl. inf placement (== is exact, inf == inf)
        assert got.energy.shape == ref.energy.shape
        assert np.all((got.energy == ref.energy) | (np.isinf(got.energy) & np.isinf(ref.energy)))
        assert np.array_equal(got_choice, ref_choice)
        assert got_ops == ref_ops
        # a budget window keeps exactly its columns of the full combine
        lo, hi = ref.w_min, ref.w_max
        win_lo = int(rng.integers(lo - 2, hi + 1))
        win_hi = int(rng.integers(max(win_lo, lo), hi + 3))
        win, win_choice, _ = combine_pair(a, b, (win_lo, win_hi))
        cols = slice(max(win_lo, lo) - lo, min(win_hi, hi) - lo + 1)
        assert np.array_equal(win.ways, ref.ways[cols])
        assert win.energy.tobytes() == ref.energy[cols].tobytes()
        assert np.array_equal(win_choice, ref_choice[cols])

    def test_all_infeasible_left_keeps_w_min_choice(self):
        a = EnergyCurve(np.arange(2, 5), np.full(3, np.inf))
        b = EnergyCurve(np.arange(2, 5), np.zeros(3))
        got, choice, _ = combine_pair(a, b)
        ref, ref_choice, _ = combine_pair_reference(a, b)
        assert np.all(np.isinf(got.energy)) and np.all(np.isinf(ref.energy))
        assert np.array_equal(choice, ref_choice)
        assert np.all(choice == a.w_min)

    def test_tie_breaks_to_smallest_left_allocation(self):
        a = EnergyCurve(np.array([1, 2]), np.array([1.0, 1.0]))
        b = EnergyCurve(np.array([1, 2]), np.array([1.0, 1.0]))
        _, choice, _ = combine_pair(a, b)
        # combined W=3 can be (1,2) or (2,1) at equal energy: left-min wins
        assert choice[1] == 1


# ---------------------------------------------------------------------------
# ReductionTree: persistent kernel vs stateless full rebuild
# ---------------------------------------------------------------------------
class TestReductionTreeDifferential:
    @given(
        n=st.integers(1, 12),
        n_updates=st.integers(0, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_solve_matches_partition_ways(self, n, n_updates, seed):
        rng = np.random.default_rng(seed)
        curves = [random_curve(rng) for _ in range(n)]
        tree = ReductionTree(curves)
        budget = 8 * n
        for _ in range(n_updates + 1):
            try:
                ref = partition_ways(curves, budget)
            except ValueError:
                with pytest.raises(ValueError):
                    tree.solve(budget)
            else:
                got = tree.solve(budget)
                assert got.ways == ref.ways
                assert got.total_energy == ref.total_energy  # bit-equal
            i = int(rng.integers(n))
            curves[i] = random_curve(rng)
            tree.update(i, curves[i])

    def test_update_returns_path_ops_only(self):
        rng = np.random.default_rng(7)
        n = 8
        curves = [random_curve(rng, inf_frac=0.0) for _ in range(n)]
        tree = ReductionTree(curves)
        full = partition_ways(curves, 8 * n).dp_operations
        assert tree.build_operations < full  # root combine never runs
        update_ops = tree.update(3, random_curve(rng, inf_frac=0.0))
        solve_ops = tree.solve(8 * n).dp_operations
        # O(log n) path combines + the root window: far below a rebuild
        assert update_ops + solve_ops < full / 2

    def test_incremental_advantage_grows_with_core_count(self):
        """The paper's polynomial-complexity argument, sharpened: the
        persistent tree's per-update work falls ever further behind the
        full rebuild as the system scales."""
        rng = np.random.default_rng(11)
        ratios = {}
        for n in (4, 8, 16, 32):
            curves = [random_curve(rng, inf_frac=0.0) for _ in range(n)]
            tree = ReductionTree(curves)
            full = partition_ways(curves, 8 * n).dp_operations
            incr = tree.update(0, random_curve(rng, inf_frac=0.0))
            incr += tree.solve(8 * n).dp_operations
            ratios[n] = full / incr
        assert ratios[32] > ratios[4]
        assert ratios[32] >= 5.0

    def test_pinned_leaves_and_odd_counts(self):
        curves = [
            EnergyCurve.pinned(8),
            EnergyCurve(np.arange(2, 17), np.linspace(5, 1, 15)),
            EnergyCurve.pinned(8),
        ]
        tree = ReductionTree(curves)
        got = tree.solve(24)
        ref = partition_ways(curves, 24)
        assert got.ways == ref.ways == [8, 8, 8]

    def test_single_leaf(self):
        tree = ReductionTree([EnergyCurve(np.arange(2, 17), np.linspace(5, 1, 15))])
        got = tree.solve(10)
        assert got.ways == [10]
        assert got.dp_operations == 0

    def test_budget_out_of_domain(self):
        with pytest.raises(ValueError):
            ReductionTree([EnergyCurve.pinned(8)]).solve(9)


# ---------------------------------------------------------------------------
# Managers: incremental vs full_rebuild across RMs and models
# ---------------------------------------------------------------------------
def _prime_inputs(db, system, app, phase=0):
    rec = db.record(app, phase)
    base = system.baseline_setting()
    return ModelInputs(
        counters=rec.counters_at(base), atd=rec.atd_report(), next_record=rec
    )


class TestManagerModes:
    @pytest.mark.parametrize("kind", ["rm1", "rm2", "rm3"])
    @pytest.mark.parametrize("model_cls", [Model1, Model3, PerfectModel])
    def test_decisions_identical_across_modes(self, mini_db, system2, kind, model_cls):
        rm_inc = make_rm(kind, system2, model_cls(), reduction="incremental")
        rm_full = make_rm(kind, system2, model_cls(), reduction="full_rebuild")
        apps = ["mini_csps", "mini_cips", "mini_csps", "mini_cips"]
        for step, app in enumerate(apps):
            core = step % system2.n_cores
            inputs = _prime_inputs(
                mini_db, system2, app, phase=(step % 2 if app == "mini_csps" else 0)
            )
            d_inc = rm_inc.observe(core, inputs)
            d_full = rm_full.observe(core, inputs)
            assert d_inc.settings == d_full.settings
            assert d_inc.total_predicted_energy == d_full.total_predicted_energy
            assert d_inc.local_evaluations == d_full.local_evaluations

    def test_full_rebuild_dp_matches_stateless_reference(self, mini_db, system2):
        rm = make_rm("rm3", system2, Model3(), reduction="full_rebuild")
        for core, app in enumerate(["mini_csps", "mini_cips"]):
            decision = rm.observe(core, _prime_inputs(mini_db, system2, app))
        ref = partition_ways(rm._curves, system2.total_ways)
        assert decision.dp_operations == ref.dp_operations

    def test_incremental_charges_less_when_warm(self, mini_db, system2):
        rm_inc = make_rm("rm3", system2, Model3(), reduction="incremental")
        rm_full = make_rm("rm3", system2, Model3(), reduction="full_rebuild")
        inputs = _prime_inputs(mini_db, system2, "mini_csps")
        for core in range(system2.n_cores):
            d_inc = rm_inc.observe(core, inputs)
            d_full = rm_full.observe(core, inputs)
        assert d_inc.dp_operations < d_full.dp_operations

    def test_reset_rebuilds_tree(self, mini_db, system2):
        rm = make_rm("rm3", system2, Model3())
        inputs = _prime_inputs(mini_db, system2, "mini_csps")
        rm.observe(0, inputs)
        assert rm._tree is not None
        rm.reset()
        assert rm._tree is None
        decision = rm.observe(1, inputs)
        assert decision.settings[0].ways == system2.baseline_setting().ways

    def test_unknown_mode_rejected(self, system2):
        with pytest.raises(ValueError):
            make_rm("rm3", system2, Model3(), reduction="sometimes")


# ---------------------------------------------------------------------------
# Simulator: SoA advance vs scalar reference, end-to-end mode identity
# ---------------------------------------------------------------------------
def _random_states(rng, n):
    st_ = _CoreStates(n)
    st_.stall_s[:] = rng.random(n) * 1e-3
    st_.tpi_s[:] = rng.random(n) * 1e-8 + 1e-10
    st_.n_instructions[:] = rng.integers(1_000, 100_000, n).astype(float)
    st_.instr_done[:] = st_.n_instructions * rng.random(n)
    st_.total_instr[:] = st_.instr_done + rng.random(n) * 1e5
    st_.interval_elapsed_s[:] = rng.random(n) * 1e-2
    st_.epi_j[:] = rng.random(n) * 1e-9
    st_.work_j_per_inst[:] = st_.epi_j + rng.random(n) * 1e-9
    st_.static_w[:] = rng.random(n)
    st_.finished[:] = rng.random(n) < 0.2
    st_.core_dynamic_j[:] = rng.random(n)
    st_.core_static_j[:] = rng.random(n)
    st_.memory_j[:] = rng.random(n)
    return st_


def _snapshot(st_):
    return {
        name: getattr(st_, name).copy()
        for name in (
            "stall_s", "instr_done", "total_instr", "interval_elapsed_s",
            "finished", "core_dynamic_j", "core_static_j", "memory_j",
        )
    }


class TestAdvanceDifferential:
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        dt_scale=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_vectorised_matches_scalar_reference(self, n, seed, dt_scale):
        rng = np.random.default_rng(seed)
        base = _random_states(rng, n)
        horizon = float(rng.integers(10_000, 200_000))
        dt = dt_scale * 2e-3

        vec = _random_states(np.random.default_rng(seed), n)
        advance_cores(vec, dt, horizon)
        advance_cores_reference(base, dt, horizon)

        got, ref = _snapshot(vec), _snapshot(base)
        for name in ref:
            assert np.array_equal(got[name], ref[name]), name

    def test_negative_dt_rejected(self):
        st_ = _CoreStates(2)
        with pytest.raises(ValueError):
            advance_cores(st_, -1.0, 1e6)


class TestSimulatorModeIdentity:
    def test_end_to_end_identical_without_overheads(self, mini_db, system2):
        """With no overheads charged the two reduction modes must produce
        bit-identical runs (same settings => same trajectory)."""
        from repro.campaign.results import result_to_json

        wl = ["mini_csps", "mini_cips"]
        texts = []
        for red in ("incremental", "full_rebuild"):
            rm = make_rm("rm3", system2, Model3(), reduction=red)
            res = MulticoreRMSimulator(
                mini_db, rm, charge_overheads=False, collect_history=True
            ).run(wl, horizon_intervals=8)
            texts.append(result_to_json(res))
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "kind,model",
        [("rm3", "Model3"), ("rm3", "Model1"), ("rm2", "Model1")],
    )
    @pytest.mark.parametrize("charge", [True, False])
    def test_paper_scale_step_matches_scalar(
        self, full_db, kind, model, charge
    ):
        """The wave loop's decision-kernel accelerations (windowed tree,
        compiled path updates, identity replays) against the scalar
        oracle on the full 27-app database, not just the mini suites."""
        from repro.campaign.executor import _simulate
        from repro.campaign.results import result_to_json
        from repro.campaign.spec import RunSpec

        spec = RunSpec(
            seed=2020,
            n_cores=4,
            rm_kind=kind,
            model=model,
            apps=("h264ref", "cactusADM", "bzip2", "hmmer"),
            horizon_intervals=4,
            charge_overheads=charge,
        )
        scalar = _simulate(spec, wave="scalar")
        step = _simulate(spec, wave="step")
        assert step == scalar
        assert result_to_json(step) == result_to_json(scalar)

    def test_idle_runs_price_uncore_energy(self, mini_db, system2):
        """Every manager (incl. Idle via the base ctor) has an energy
        model, so uncore power is charged unconditionally."""
        rm = make_rm("idle", system2)
        res = MulticoreRMSimulator(mini_db, rm).run(
            ["mini_csps", "mini_cips"], horizon_intervals=4
        )
        expected_w = rm.energy_model.power.uncore_power_w(system2.n_cores)
        assert expected_w > 0
        assert res.uncore_j == pytest.approx(expected_w * res.t_end_s)
        assert res.uncore_j > 0


# ---------------------------------------------------------------------------
# Compiled kernels vs their NumPy paths, on generated inputs
# ---------------------------------------------------------------------------
needs_native = pytest.mark.skipif(
    not _native_opt.available(), reason="compiled kernels unavailable"
)

#: Every per-core array the event touches outside its scratch buffers.
_STATE = (
    "stall_s", "tpi_s", "instr_done", "total_instr", "interval_elapsed_s",
    "n_instructions", "epi_j", "work_j_per_inst", "static_w", "finished",
    "_active", "core_dynamic_j", "core_static_j", "memory_j",
)


def _bits(arr):
    return np.ascontiguousarray(arr).tobytes()


def _event_states(seed, n, ties, crossing):
    """A wave-loop state built from ``seed``: zero and positive stalls,
    cores past their interval end (``rem`` clamps at 0), finished cores
    with zeroed rates, ``ties`` cores copying core 0's boundary exactly,
    and a horizon that some active core crosses when ``crossing``."""
    rng = np.random.default_rng(seed)
    st_ = _CoreStates(n)
    st_.stall_s[:] = np.where(rng.random(n) < 0.5, 0.0, rng.random(n) * 1e-3)
    st_.tpi_s[:] = rng.random(n) * 1e-8 + 1e-10
    st_.n_instructions[:] = rng.integers(1_000, 100_000, n).astype(float)
    st_.instr_done[:] = st_.n_instructions * rng.random(n) * 1.2
    st_.total_instr[:] = st_.instr_done + rng.random(n) * 1e5
    st_.interval_elapsed_s[:] = rng.random(n) * 1e-2
    st_.epi_j[:] = rng.random(n) * 1e-9
    st_.work_j_per_inst[:] = st_.epi_j + rng.random(n) * 1e-9
    st_.static_w[:] = rng.random(n)
    st_.core_dynamic_j[:] = rng.random(n)
    st_.core_static_j[:] = rng.random(n)
    st_.memory_j[:] = rng.random(n)
    for i in rng.choice(n, size=min(ties, n), replace=False):
        for name in ("stall_s", "tpi_s", "n_instructions", "instr_done"):
            getattr(st_, name)[i] = getattr(st_, name)[0]
    done = rng.random(n) < 0.25
    if done.all():
        done[0] = False
    st_.finished[:] = done
    st_._active[:] = ~done
    st_.n_active = int((~done).sum())
    st_.zero_finished_rates(done)
    if crossing:
        # Where a random active core lands this event: it, and every
        # active core landing further, reaches the horizon.
        rem = np.maximum(st_.n_instructions - st_.instr_done, 0.0)
        dt = (rem * st_.tpi_s + st_.stall_s).min()
        d = (dt - np.minimum(st_.stall_s, dt)) / st_.tpi_s
        d = np.minimum(d, rem + 1e-6)
        i = int(rng.choice(np.flatnonzero(~done)))
        horizon = float(st_.total_instr[i] + d[i])
    else:
        horizon = float(st_.total_instr.max()) + 1e9
    return st_, horizon


class TestEventKernelDifferential:
    """``wave_event`` (one call per event) against the wave loop's NumPy
    boundary pick followed by :func:`advance_cores_wave`."""

    @staticmethod
    def _reference(st_, horizon):
        rem = np.maximum(st_.n_instructions - st_.instr_done, 0.0)
        st_._remaining[:] = rem
        dts = rem * st_.tpi_s
        dts += st_.stall_s
        b = int(dts.argmin())
        dt = float(dts[b])
        advance_cores_wave(st_, dt, horizon)
        return b, dt

    @needs_native
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        ties=st.integers(0, 6),
        crossing=st.booleans(),
    )
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_event_matches_numpy_pick_and_advance(self, n, seed, ties, crossing):
        """A non-crossing event never leaves the compiled path (the
        NumPy advance is patched to raise); a crossing one hands off to
        it exactly once."""
        got_st, horizon = _event_states(seed, n, ties, crossing)
        ref_st, _ = _event_states(seed, n, ties, crossing)
        with mock.patch.object(
            rmsim, "advance_cores_wave", wraps=advance_cores_wave
        ) as numpy_advance:
            if not crossing:
                numpy_advance.side_effect = AssertionError("left the kernel")
            got = got_st.next_event(horizon)
        assert numpy_advance.call_count == crossing
        ref = self._reference(ref_st, horizon)
        assert got == ref
        assert got_st.n_active == ref_st.n_active
        for name in _STATE:
            assert _bits(getattr(got_st, name)) == _bits(getattr(ref_st, name)), name

    @needs_native
    @given(
        n=st.integers(1, 40),
        seed=st.integers(0, 10_000),
        ties=st.integers(0, 6),
        crossing=st.booleans(),
    )
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_next_event_without_kernel_matches_compiled(
        self, n, seed, ties, crossing
    ):
        """:meth:`_CoreStates.next_event` with ``_evlib`` cleared (a host
        without a compiler) takes its NumPy path, and matches the
        compiled ``wave_event`` path event for event."""
        got_st, horizon = _event_states(seed, n, ties, crossing)
        ref_st, _ = _event_states(seed, n, ties, crossing)
        got_st._evlib = None
        assert got_st.next_event(horizon) == ref_st.next_event(horizon)
        assert got_st.n_active == ref_st.n_active
        for name in _STATE:
            assert _bits(getattr(got_st, name)) == _bits(getattr(ref_st, name)), name

    @needs_native
    @given(n=st.integers(1, 40), seed=st.integers(0, 10_000), ties=st.integers(0, 6))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_horizon_crossing_event_mutates_nothing(self, n, seed, ties):
        """The kernel's one argument is the slot table: the horizon goes
        in its horizon slot, and a crossing event returns ``-1 - b`` with
        ``dt`` in the dt slot and every core's state untouched."""
        st_, horizon = _event_states(seed, n, ties, crossing=True)
        before = {name: _bits(getattr(st_, name)) for name in _STATE}
        slots = len(_native_opt.EVENT_SLOTS)
        st_._ev_slots[slots] = horizon
        assert st_._ev_table[slots + 1] == n
        got = _native_opt.raw_lib().wave_event(st_._ev_addr)
        assert got < 0
        for name in _STATE:
            assert _bits(getattr(st_, name)) == before[name], name
        ref_st, _ = _event_states(seed, n, ties, crossing=True)
        assert (-1 - got, st_._ev_slots[slots + 2]) == self._reference(
            ref_st, horizon
        )

    def test_tied_boundaries_pick_lowest_core(self):
        st_ = _CoreStates(5)
        st_.tpi_s[:] = 1e-9
        st_.n_instructions[:] = 1000.0
        st_.instr_done[:] = [500.0, 0.0, 500.0, 500.0, 2000.0]
        st_.stall_s[:] = [1e-7, 0.0, 1e-7, 0.0, 0.0]
        # core 4 is past its end: rem clamps to 0, so it is the boundary
        assert st_.next_event(1e12) == (4, 0.0)
        st_.instr_done[4] = 500.0
        b, _ = st_.next_event(1e12)
        assert b == 3  # cores 3 and 4 tie exactly
        st_.instr_done[:] = 0.0
        st_.stall_s[:] = 0.0
        b, _ = st_.next_event(1e12)
        assert b == 0  # all five tie


def _tree_curves(rng, n, leaf_lo, leaf_hi, ties):
    curves = []
    for _ in range(n):
        width = int(rng.integers(1, leaf_hi - leaf_lo + 2))
        w_min = int(rng.integers(leaf_lo, leaf_hi - width + 2))
        if ties:
            energy = rng.integers(0, 4, width).astype(float)
        else:
            energy = rng.random(width) * 10.0
        if width > 1 and rng.random() < 0.4:
            start = int(rng.integers(0, width))
            energy[start : start + int(rng.integers(1, width + 1))] = np.inf
        curves.append(EnergyCurve(np.arange(w_min, w_min + width), energy))
    return curves


class TestFusedRootEvaluation:
    """``tree_update``'s root split against :meth:`ReductionTree.evaluate`'s
    NumPy window over the same tree, across leaf updates."""

    @staticmethod
    def _numpy_evaluate(tree, budget):
        cached = tree._eval_cache
        tree._eval_cache = None
        try:
            total, ops, extract = tree.evaluate(budget)
            return total, ops, extract()
        finally:
            tree._eval_cache = cached

    @needs_native
    @given(
        n=st.integers(2, 12),
        seed=st.integers(0, 10_000),
        ties=st.booleans(),
        n_updates=st.integers(0, 8),
    )
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_fused_root_matches_numpy_window(self, n, seed, ties, n_updates):
        rng = np.random.default_rng(seed)
        leaf_lo, leaf_hi = 2, 16
        curves = _tree_curves(rng, n, leaf_lo, leaf_hi, ties)
        budget = int(
            rng.integers(
                sum(c.w_min for c in curves), sum(c.w_max for c in curves) + 1
            )
        )
        tree = ReductionTree(curves, acceleration=(budget, leaf_lo, leaf_hi))
        for step in range(n_updates + 1):
            if step:
                # Only updates that keep the budget inside the domain.
                i = int(rng.integers(n))
                fresh = _tree_curves(rng, 1, leaf_lo, leaf_hi, ties)[0]
                old = curves[i]
                if not (
                    tree.w_min_total - old.w_min + fresh.w_min
                    <= budget
                    <= tree.w_max_total - old.w_max + fresh.w_max
                ):
                    continue
                curves[i] = fresh
                tree.update(i, fresh)
            try:
                ref = self._numpy_evaluate(tree, budget)
            except ValueError:
                assert tree._eval_cache is None
                with pytest.raises(ValueError):
                    tree.evaluate(budget)
                continue
            cache = tree._eval_cache
            assert cache is not None and cache[0] == budget
            total, ops, extract = tree.evaluate(budget)
            assert (total, ops, extract()) == ref
            stateless = partition_ways(curves, budget)
            assert ref[2] == stateless.ways
            assert ref[0] == stateless.total_energy

    @needs_native
    def test_leaf_whose_parent_is_the_root(self):
        """Two leaves: each update's plan has no combine step, only the
        root split; single-point and +inf-run curves included."""
        a = EnergyCurve(np.arange(2, 7), np.array([np.inf, np.inf, 1.0, 1.0, 0.5]))
        b = EnergyCurve.pinned(8)
        tree = ReductionTree([a, b], acceleration=(12, 2, 16))
        assert tree._plans[0][0] == 0 and tree._plans[1][0] == 0
        assert tree.solve(12).ways == partition_ways([a, b], 12).ways
        c = EnergyCurve(np.arange(4, 10), np.array([3.0, 2.0, 2.0, np.inf, 2.0, 9.0]))
        assert tree.update(1, c) == 0
        got = tree.solve(12)
        ref = partition_ways([a, c], 12)
        assert (got.ways, got.total_energy) == (ref.ways, ref.total_energy)
        assert got.dp_operations == 4  # candidate left allocations 3..6

    def test_curve_outside_leaf_bounds_rejected(self):
        curves = [EnergyCurve.pinned(8) for _ in range(4)]
        tree = ReductionTree(curves, acceleration=(32, 2, 16))
        with pytest.raises(ValueError, match="bounds"):
            tree.update(0, EnergyCurve(np.arange(10, 18), np.zeros(8)))
        with pytest.raises(ValueError, match="bounds"):
            ReductionTree([EnergyCurve.pinned(1)] * 4, acceleration=(32, 2, 16))


def _scalar_spec(a, b, lo, hi):
    """The combine's spec: each column's single-add sums in ascending
    left allocation, kept by ``v < best`` from +inf."""
    out = []
    for w in range(lo, hi + 1):
        best = math.inf
        for wa in range(max(a.w_min, w - b.w_max), min(a.w_max, w - b.w_min) + 1):
            v = float(a.energy[wa - a.w_min]) + float(b.energy[w - wa - b.w_min])
            if v < best:
                best = v
        out.append(best)
    return np.array(out)


def _combined_nodes(tree):
    """The accelerated tree's materialised (non-root) internal nodes."""
    return [node for node in tree._internal if node is not tree._root]


def _assert_nodes_match_windowed_combine(tree):
    for node in _combined_nodes(tree):
        ref, _, _ = combine_pair(
            node.left.curve, node.right.curve, (node.win_lo, node.win_hi)
        )
        assert node.curve.w_min == ref.w_min
        assert node.curve.energy.tobytes() == ref.energy.tobytes()


class TestBlockedCombine:
    """``tree_update``'s row-blocked combine: every internal node's
    values against :func:`combine_pair` over the same operands and
    window, after the build and after every update."""

    @needs_native
    @given(
        n=st.integers(2, 64),
        seed=st.integers(0, 10_000),
        ties=st.booleans(),
        pinned=st.floats(0.0, 0.5),
        n_updates=st.integers(0, 6),
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_node_values_match_windowed_combine(
        self, n, seed, ties, pinned, n_updates
    ):
        rng = np.random.default_rng(seed)
        leaf_lo, leaf_hi = 2, 16

        def leaves(k):
            curves = _tree_curves(rng, k, leaf_lo, leaf_hi, ties)
            return [
                EnergyCurve.pinned(8) if rng.random() < pinned else c
                for c in curves
            ]

        curves = leaves(n)
        budget = int(
            rng.integers(
                sum(c.w_min for c in curves), sum(c.w_max for c in curves) + 1
            )
        )
        tree = ReductionTree(curves, acceleration=(budget, leaf_lo, leaf_hi))
        _assert_nodes_match_windowed_combine(tree)
        for _ in range(n_updates):
            i = int(rng.integers(n))
            fresh = leaves(1)[0]
            old = curves[i]
            if not (
                tree.w_min_total - old.w_min + fresh.w_min
                <= budget
                <= tree.w_max_total - old.w_max + fresh.w_max
            ):
                continue
            curves[i] = fresh
            tree.update(i, fresh)
            _assert_nodes_match_windowed_combine(tree)

    @needs_native
    @pytest.mark.parametrize("lb", [1, 3, 8, 13])
    def test_every_block_tail(self, lb):
        """Left operands of 1 to two blocks' rows, so the padded tail
        takes every residue mod :data:`COMBINE_ROWS`; the windows cover
        each combine's whole domain, so every row is read."""
        rows = _native_opt.COMBINE_ROWS
        rng = np.random.default_rng(lb)
        tails = set()
        for la in range(1, 2 * rows + 1):
            a = random_curve(rng, la, w_min=1)
            b = random_curve(rng, lb, w_min=1)
            tree = ReductionTree(
                [a, b, EnergyCurve.pinned(40)], acceleration=(42, 1, 40)
            )
            (node,) = _combined_nodes(tree)
            assert node.left.curve is a and node.right.curve is b
            full, _, _ = combine_pair(a, b)
            assert node.curve.w_min == full.w_min
            assert node.curve.energy.tobytes() == full.energy.tobytes()
            tails.add(la % rows)
        assert tails == set(range(rows))

    @needs_native
    def test_signed_zeros_and_nan_follow_the_ascending_spec(self):
        """Negative values and ties between -0.0 and +0.0: each column
        keeps its first minimum in ascending left allocation, sign of
        zero included, and a NaN sum never wins — the scalar spec, and
        (NaN aside) :func:`combine_pair`."""
        rng = np.random.default_rng(5)
        zeros = np.array([-0.0, 0.0, 2.0])
        negative = np.array([-0.0, 0.0, -1.0, 1.0, -2.5])
        curves = [
            EnergyCurve(np.arange(2, 2 + w), rng.choice(values, w))
            for w, values in zip(
                (9, 15, 7, 12, 1, 16, 10, 8), [zeros] * 4 + [negative] * 4
            )
        ]
        tree = ReductionTree(curves, acceleration=(70, 2, 17))
        signs = set()
        for node in _combined_nodes(tree):
            spec = _scalar_spec(
                node.left.curve, node.right.curve, node.curve.w_min,
                node.curve.w_max,
            )
            assert node.curve.energy.tobytes() == spec.tobytes()
            signs.update(np.signbit(spec[spec == 0.0]))
        assert signs == {False, True}
        _assert_nodes_match_windowed_combine(tree)
        with_nan = curves[0].energy.copy()
        with_nan[[0, 4]] = np.nan
        tree.update(0, EnergyCurve(curves[0].ways, with_nan))
        node = tree._leaves[0].parent
        spec = _scalar_spec(
            node.left.curve, node.right.curve, node.curve.w_min, node.curve.w_max
        )
        assert node.curve.energy.tobytes() == spec.tobytes()
