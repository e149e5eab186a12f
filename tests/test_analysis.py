"""Analysis tests: trade-off matrix and the QoS-violation study.

The study's sweep runs on the compiled ``qos_sweep`` kernel or, without
a compiler, as the same gather, add and compare in NumPy; both are
checked against the full (current, target) matrix of
:func:`_prediction_matrix`, on the test database and on generated phase
records.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import stats
from repro.analysis.stats import (
    QoSStudyResult,
    ViolationHistogram,
    _flatten_settings,
    _prediction_matrix,
    qos_violation_study,
)
from repro.analysis.tradeoffs import tradeoff_matrix
from repro.config import CoreSize, Setting
from repro.core import _native_opt
from repro.core.perf_models import Model1, Model2, Model3, ModelInputs
from repro.database.builder import SimDatabase
from repro.database.records import PhaseRecord
from repro.testing import make_phase
from repro.trace.spec import AppSpec
from repro.workloads.categories import Category

MODELS = ("Model1", "Model2", "Model3")
PATHS = (["native"] if _native_opt.available() else []) + ["fallback"]


def _refuse(*args, **kwargs):
    raise AssertionError("the compiled qos_sweep ran on the fallback path")


def on_path(path: str):
    """Run the enclosed sweeps on the compiled kernel or its fallback; on
    the fallback, the compiled ``qos_sweep`` raises if called."""
    if path == "native":
        return contextlib.nullcontext()
    return mock.patch.multiple(
        _native_opt, available=lambda: False, qos_sweep=_refuse
    )


def uncached(db: SimDatabase) -> SimDatabase:
    """The same records without ``db``'s per-database sweep cache."""
    return SimDatabase(system=db.system, apps=db.apps, records=db.records)


def full_matrix_study(db, model_name, bins=None, apps=None) -> QoSStudyResult:
    """The study over every (current, target) pair of the full matrix."""
    system = db.system
    cc, ff, ww = _flatten_settings(system)
    base = system.baseline_setting()
    cb, fb = int(base.core), system.dvfs.index_of(base.f_ghz)
    names = list(apps) if apps is not None else db.app_names()
    edges = np.asarray(
        np.arange(0.0, 0.525, 0.025) if bins is None else bins, dtype=float
    )
    cases = viol_w = sum_mag = sum_mag2 = 0.0
    hist = np.zeros(edges.size - 1)
    for name in names:
        weights = db.apps[name].phase_weights()
        for rec, phase_w in zip(db.records[name], weights):
            t_act = rec.time_grid[cc, ff, ww - 1]
            t_base = float(rec.time_grid[cb, fb, base.ways - 1])
            pred, pred_base = _prediction_matrix(rec, system, model_name)
            viol = (pred <= pred_base[:, None] * (1.0 + 1e-9)) & (
                t_act[None, :] > t_base * (1.0 + 1e-9)
            )
            weight = 1.0 / len(names) * phase_w
            pair_w = weight / viol.size
            mags = np.broadcast_to((t_act - t_base) / t_base, viol.shape)[viol]
            cases += weight
            viol_w += pair_w * int(np.count_nonzero(viol))
            sum_mag += pair_w * float(mags.sum())
            sum_mag2 += pair_w * float((mags**2).sum())
            hist += np.histogram(mags, bins=edges)[0] * pair_w
    ev = sum_mag / viol_w if viol_w else 0.0
    std = float(np.sqrt(max(sum_mag2 / viol_w - ev * ev, 0.0))) if viol_w else 0.0
    return QoSStudyResult(
        model_name=model_name,
        probability=viol_w / cases,
        expected_value=ev,
        std=std,
        histogram=ViolationHistogram(bin_edges=edges, counts=hist),
        weighted_cases=cases,
        weighted_violations=viol_w,
    )


def assert_same_study(got: QoSStudyResult, want: QoSStudyResult) -> None:
    """Every field equal, histogram bytes included."""
    for name in (
        "model_name", "probability", "expected_value", "std",
        "weighted_cases", "weighted_violations",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert got.histogram.bin_edges.tobytes() == want.histogram.bin_edges.tobytes()
    assert got.histogram.counts.dtype == want.histogram.counts.dtype
    assert got.histogram.counts.tobytes() == want.histogram.counts.tobytes()


def paper_counts():
    return {
        Category.CS_PS: 5,
        Category.CS_PI: 7,
        Category.CI_PS: 7,
        Category.CI_PI: 8,
    }


class TestTradeoffMatrix:
    def test_ten_cells(self):
        cells = tradeoff_matrix(paper_counts())
        assert len(cells) == 10

    def test_sorted_by_probability(self):
        cells = tradeoff_matrix(paper_counts())
        probs = [c.probability for c in cells]
        assert probs == sorted(probs, reverse=True)
        assert cells[0].label == "CI-PI x CI-PI"

    def test_rm3_extends_rm2_in_12_of_16_ordered_mixes(self):
        """The paper: RM3 is more effective in 12 of 16 (ordered) mixes.

        In unordered-cell terms: every cell except the four pure
        RM2-equivalent ones shows a different RM3 action.
        """
        cells = tradeoff_matrix(paper_counts())
        extended = [c for c in cells if c.rm3_helps_over_rm2]
        ordered_count = sum(2 if len(c.pair) == 2 else 1 for c in extended)
        assert ordered_count == 12

    def test_scenarios_assigned(self):
        cells = tradeoff_matrix(paper_counts())
        by_scenario = {}
        for c in cells:
            by_scenario.setdefault(c.scenario, []).append(c)
        assert len(by_scenario[1]) == 5
        assert len(by_scenario[2]) == 2
        assert len(by_scenario[3]) == 2
        assert len(by_scenario[4]) == 1


class TestQoSStudy:
    @pytest.fixture(scope="class")
    def studies(self, mini_db):
        return {
            m: qos_violation_study(mini_db, m)
            for m in ("Model1", "Model2", "Model3")
        }

    def test_probabilities_valid(self, studies):
        for r in studies.values():
            assert 0.0 <= r.probability <= 1.0
            assert r.expected_value >= 0.0
            assert r.std >= 0.0

    def test_model3_fewest_violations(self, studies):
        assert studies["Model3"].probability < studies["Model2"].probability
        assert studies["Model2"].probability < studies["Model1"].probability

    def test_model3_smaller_expected_violation(self, studies):
        assert (
            studies["Model3"].expected_value <= studies["Model2"].expected_value
        )

    def test_histogram_consistent(self, studies):
        for r in studies.values():
            total = float(r.histogram.counts.sum())
            # histogram mass (within binned range) cannot exceed the
            # weighted violation mass
            assert total <= r.weighted_violations + 1e-9

    def test_weighted_cases_is_app_count_normalised(self, studies):
        for r in studies.values():
            assert r.weighted_cases == pytest.approx(1.0)

    def test_custom_bins(self, mini_db):
        r = qos_violation_study(mini_db, "Model3", bins=[0.0, 0.1, 0.2])
        assert r.histogram.counts.shape == (2,)

    def test_app_subset(self, mini_db):
        r = qos_violation_study(mini_db, "Model2", apps=["mini_cips"])
        assert r.weighted_cases == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "model_name, path",
        [
            # The compiled path keeps the bare model id.
            pytest.param(m, p, id=m if p == "native" else f"{m}-{p}")
            for m in MODELS
            for p in PATHS
        ],
    )
    def test_matches_full_matrix_sweep(self, mini_db, model_name, path):
        """Sweeping only the slower targets, natively or in NumPy, changes
        no bit of the result."""
        with on_path(path):
            got = qos_violation_study(uncached(mini_db), model_name)
        assert_same_study(got, full_matrix_study(mini_db, model_name))

    @pytest.mark.parametrize("path", PATHS)
    def test_bins_and_subsets_match_full_matrix(self, mini_db, path):
        db = uncached(mini_db)
        subset = mini_db.app_names()[1:3]
        with on_path(path):
            for model_name in MODELS:
                for bins in (None, np.arange(0.0, 0.525, 0.05), [0.0, 0.03, 0.1, 0.7]):
                    for apps in (None, subset):
                        assert_same_study(
                            qos_violation_study(db, model_name, bins, apps),
                            full_matrix_study(mini_db, model_name, bins, apps),
                        )

    @pytest.mark.parametrize("path", PATHS)
    @pytest.mark.parametrize(
        "apps", [[], ["nope"], ["mini_cips", "nope"]], ids=["none", "unknown", "mixed"]
    )
    def test_bad_apps_rejected_before_sweeping(self, mini_db, path, apps):
        db = uncached(mini_db)
        with on_path(path), pytest.raises(ValueError, match="appl"):
            qos_violation_study(db, "Model1", apps=apps)
        assert "_qos_sweeps" not in db.__dict__

    def test_unknown_model_rejected(self, mini_db):
        with pytest.raises(ValueError):
            qos_violation_study(mini_db, "Model9")

    def test_normalised_histogram(self, studies):
        r = studies["Model1"]
        peak = max(float(s.histogram.counts.max()) for s in studies.values())
        if peak > 0:
            norm = r.histogram.normalised_to(peak)
            assert np.all(norm <= 1.0 + 1e-12)
        with pytest.raises(ValueError):
            r.histogram.normalised_to(0.0)


# ---------------------------------------------------------------------------
# The sweep on generated phase records
# ---------------------------------------------------------------------------


def generated_record(system, seed: int, slower: str, tie: bool) -> PhaseRecord:
    """A phase record of random counters over ``system``'s setting grid.

    Every record clips ``t0`` to 0 at some currents (memory time beyond the
    interval) and has zero leading misses at others (the ``lat_eff``
    fallback).  ``slower`` makes no target, one target or many targets
    slower than the baseline.  ``tie`` plants, for Models 2 and 3, a
    (current, slower target) pair predicted exactly at the threshold:
    that current has no compute term and unit latency and MLP, so its
    prediction is the target's memory factor itself.
    """
    rng = np.random.default_rng(seed)
    nf = len(system.candidate_frequencies())
    base = system.baseline_setting()
    cb, fb, wb = int(base.core), system.dvfs.index_of(base.f_ghz), base.ways - 1
    time_grid = rng.uniform(0.02, 0.1, (3, nf, 16))
    mem_time = rng.uniform(0.0, 0.08, (3, 16))
    mem_time[rng.random((3, 16)) < 0.1] = 0.0
    mem_time[0, 1] = 1.0  # beyond every interval: t0 clips to 0
    lm_true = rng.uniform(1e4, 1e5, (3, 16))
    lm_true[rng.random((3, 16)) < 0.25] = 0.0
    lm_true[1, 2] = 0.0
    arrays = dict(
        dep_stall_cycles=rng.uniform(0.0, 2e7, 3),
        cache_stall_curve=rng.uniform(0.0, 2e7, 16),
        miss_curve=rng.uniform(1e4, 3e5, 16),
        atd_miss_curve=rng.uniform(1e4, 3e5, 16),
        lm_heur=rng.uniform(1e3, 1e5, (3, 16)),
    )
    branch_cycles = float(rng.uniform(0.0, 2e7))
    t_base = time_grid[cb, fb, wb]
    flat = np.ravel_multi_index  # (c, f, w) -> position in the grid
    target = (2, nf - 1, 15 if wb != 15 else 14)  # its way index differs from wb
    if slower != "many":
        np.minimum(time_grid, t_base, out=time_grid)
    if slower == "one":
        time_grid[target] = 1.5 * t_base
    if tie and slower != "none":
        if slower == "many":
            time_grid[target] = max(time_grid[target], 1.5 * t_base)
        c, f, w = 0, nf - 1, 5  # the tied current: t1 = 0, t0 clipped
        branch_cycles = 0.0
        arrays["cache_stall_curve"][w] = 0.0
        arrays["dep_stall_cycles"][c] = 0.0
        mem_time[c, w] = lm_true[c, w] = 1.0  # lat_eff = 1
        arrays["miss_curve"][w] = 0.5  # MLP = 1
        assert flat((c, f, w), (3, nf, 16)) != flat(target, (3, nf, 16))
        tc, _, tw = target
        arrays["atd_miss_curve"][tw] = arrays["atd_miss_curve"][wb] * (1.0 + 1e-9)
        arrays["lm_heur"][tc, tw] = arrays["lm_heur"][cb, wb] * (1.0 + 1e-9)
    return PhaseRecord(
        app="gen",
        phase="p0",
        n_instructions=1e8,
        ipc_by_size=np.array([1.0, 1.5, 2.0]),
        branch_cycles=branch_cycles,
        lm_true=lm_true,
        llc_accesses=1e6,
        time_grid=time_grid,
        mem_time_grid=mem_time,
        core_dyn_grid=np.ones((3, nf)),
        core_static_power_grid=np.ones((3, nf)),
        mem_energy_curve=np.ones(16),
        frequencies_ghz=np.array(system.candidate_frequencies()),
        **arrays,
    )


def one_record_db(system, record: PhaseRecord) -> SimDatabase:
    app = AppSpec(name="gen", phases=(make_phase("p0"),), phase_pattern=(0,))
    return SimDatabase(system=system, apps={"gen": app}, records={"gen": [record]})


class TestSweepKernel:
    @pytest.mark.parametrize("path", PATHS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        slower=st.sampled_from(["none", "one", "many"]),
        tie=st.booleans(),
    )
    @example(seed=1, slower="none", tie=False)
    @example(seed=2, slower="one", tie=True)
    @example(seed=3, slower="many", tie=True)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_generated_records_match_full_matrix(self, system2, path, seed, slower, tie):
        rec = generated_record(system2, seed, slower, tie)
        db = one_record_db(system2, rec)
        bins = [0.0, 0.1, 0.25, 0.5, 1.0, 4.0]
        with on_path(path):
            got = {m: qos_violation_study(db, m, bins) for m in MODELS}
        for m in MODELS:
            assert_same_study(got[m], full_matrix_study(db, m, bins))
        # The generator delivers the cases it promises.
        cc, ff, ww = _flatten_settings(system2)
        base = system2.baseline_setting()
        t_act = rec.time_grid[cc, ff, ww - 1]
        t_base = rec.time_grid[int(base.core), system2.dvfs.index_of(base.f_ghz), base.ways - 1]
        is_slower = t_act > t_base * (1.0 + 1e-9)
        assert is_slower.sum() == {"none": 0, "one": 1}.get(slower, is_slower.sum())
        for m in ("Model2", "Model3") if tie and slower != "none" else ():
            pred, pred_base = _prediction_matrix(rec, system2, m)
            at_threshold = pred == pred_base[:, None] * (1.0 + 1e-9)
            assert np.any(at_threshold & is_slower), m

    @pytest.mark.parametrize("path", PATHS)
    def test_a_tie_at_every_current_matches_full_matrix(self, system2, path, monkeypatch):
        """Each current's threshold is set to exactly the full matrix's
        prediction of one slower target, so a sweep whose compute table or
        memory term differs from the matrix in any bit flips some tie."""
        rec = generated_record(system2, 7, "many", tie=False)
        g = stats._grid(system2)
        t_act = rec.time_grid[g.cc, g.ff, g.wi]
        t_base = rec.time_grid[g.cb, g.fb, g.wb]
        slower = np.flatnonzero(t_act > t_base * (1.0 + 1e-9))
        target_mags = (t_act[slower] - t_base) / t_base
        rows = np.arange(g.cc.size)
        tied = rows % slower.size  # one slower target column per current
        preds = {m: _prediction_matrix(rec, system2, m, slower)[0] for m in MODELS}
        thr = {m: preds[m][rows, tied] for m in MODELS}
        monkeypatch.setattr(stats, "_RTOL", 0.0)
        monkeypatch.setattr(stats, "_predicted_base", lambda rec, g, m, cur: thr[m])
        with on_path(path):
            cur = stats._current_side(rec, g)
            got = list(stats._violations(rec, g, cur, slower, target_mags))
        for m, (counts, mags) in zip(MODELS, got):
            viol = preds[m] <= thr[m][:, None]
            assert viol[rows, tied].all()
            assert counts.tolist() == np.count_nonzero(viol, axis=0).tolist(), m
            want = np.broadcast_to(target_mags, viol.shape)[viol]
            assert mags.tobytes() == want.tobytes(), m

    @pytest.mark.parametrize("model_cls", [Model1, Model2, Model3])
    def test_oracle_matches_model_classes_at_the_edge_cases(self, system2, model_cls):
        """The oracle itself is pinned to the model classes at the currents
        the generator makes special, where the differential above cannot
        see a fault the oracle shares: zero leading misses, a clipped
        ``t0`` and the tie's unit latency with an MLP clamped to 1."""
        rec = generated_record(system2, 11, "many", tie=True)
        pred, pred_base = _prediction_matrix(rec, system2, model_cls.name)
        cc, ff, ww = _flatten_settings(system2)
        freqs = system2.candidate_frequencies()
        nf = len(freqs)
        model = model_cls()
        for c, f, wi in ((1, 3, 2), (0, 6, 1), (0, nf - 1, 5)):
            k = int(np.flatnonzero((cc == c) & (ff == f) & (ww - 1 == wi))[0])
            current = Setting(CoreSize(c), float(freqs[f]), wi + 1)
            inp = ModelInputs(counters=rec.counters_at(current), atd=rec.atd_report())
            grid = model.predict_time_grid(inp, system2)
            assert pred[k] == pytest.approx(grid[cc, ff, ww - 1], rel=1e-9)
            assert pred_base[k] == pytest.approx(
                model.predict_baseline_time(inp, system2), rel=1e-9
            )

    @pytest.mark.skipif("native" not in PATHS, reason="compiled kernels unavailable")
    def test_kernel_validates_its_arguments(self):
        comp = np.zeros((4, 3))
        ok = dict(comp=comp, cf=np.array([0, 2]), u=np.ones(2), v=np.ones(4),
                  thr=np.ones(4), mag=np.ones(2))
        counts, mags = _native_opt.qos_sweep(**ok)
        assert counts.tolist() == [4, 4] and mags.size == 8  # ties violate
        for bad in (
            dict(cf=np.array([0, 3])),
            dict(cf=np.array([-1, 0])),
            dict(u=np.ones(3)),
            dict(mag=np.ones(1)),
            dict(v=np.ones(3)),
            dict(thr=np.ones(5)),
            dict(comp=np.zeros(12)),
        ):
            with pytest.raises(ValueError):
                _native_opt.qos_sweep(**{**ok, **bad})
