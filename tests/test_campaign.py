"""Differential tests: the campaign engine vs. the serial reference path.

The engine must be bit-identical to calling the simulator directly
(``run_workload``) for every spec, for any worker count, and across the
result store (memo and disk) — these tests are the contract that lets
every experiment plan through one shared, parallel, cached campaign.
Mirrors the ``test_replay_engine.py`` pattern from the replay substrate.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.campaign import (
    Campaign,
    RunSpec,
    cache_stats,
    clear_result_memo,
    execute_spec,
    get_database,
    prune_result_cache,
    resolve_campaign_workers,
    result_from_json,
    result_to_json,
    run_campaign,
)
from repro.campaign import database as campaign_database
from repro.campaign import executor as campaign_executor
from repro.campaign.results import memo_size
from repro.config import default_system
from repro.database.builder import SimDatabase
from repro.experiments.common import run_workload

SEED = 2020


def _spec(**kw) -> RunSpec:
    base = dict(
        seed=SEED, n_cores=4, rm_kind="rm3", model="Model3",
        apps=("mcf", "omnetpp", "libquantum", "xalancbmk"),
        horizon_intervals=4,
    )
    base.update(kw)
    return RunSpec(**base)


#: A small matrix covering idle/managers, models, overheads and alpha.
SPECS = [
    _spec(rm_kind="idle", model=None),
    _spec(rm_kind="rm1"),
    _spec(rm_kind="rm2", model="Model1"),
    _spec(),
    _spec(rm_kind="rm3", model="Perfect", charge_overheads=False),
    _spec(apps=("gamess", "sjeng", "perlbench", "dealII")),
]


@pytest.fixture(autouse=True)
def _fresh_memo():
    """Every test starts from a cold result memo (the disk cache is only
    reachable when a test opts in via REPRO_RESULT_CACHE)."""
    clear_result_memo()
    yield
    clear_result_memo()


class TestRunSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(rm_kind="rm9")
        with pytest.raises(ValueError):
            _spec(rm_kind="idle", model="Model3")
        with pytest.raises(ValueError):
            _spec(model="Model9")
        with pytest.raises(ValueError):
            _spec(apps=("mcf",))  # 1 app for 4 cores
        with pytest.raises(ValueError):
            _spec(alpha=-1.0)
        with pytest.raises(ValueError):
            _spec(rm_kind="idle", model=None, alpha=1.2)  # alpha ignored
        with pytest.raises(ValueError):
            _spec(horizon_intervals=0)

    def test_fingerprint_stable_and_content_sensitive(self):
        assert _spec().fingerprint == _spec().fingerprint
        base = _spec().fingerprint
        assert _spec(rm_kind="rm2", model="Model3").fingerprint != base
        assert _spec(model="Model2").fingerprint != base
        assert _spec(horizon_intervals=5).fingerprint != base
        assert _spec(charge_overheads=False).fingerprint != base
        assert _spec(alpha=1.1).fingerprint != base
        assert _spec(seed=7).fingerprint != base

    def test_every_field_reaches_the_fingerprint(self):
        """RunSpec holds exactly the fingerprinted inputs: changing any
        one field changes the fingerprint.  How a run executes (event
        loop, engines, workers) lives in repro.settings instead."""
        variants = {
            "seed": _spec(seed=7),
            # n_cores cannot change without the app count following it
            "n_cores": _spec(n_cores=2, apps=("mcf", "omnetpp")),
            "rm_kind": _spec(rm_kind="rm2"),
            "model": _spec(model="Model2"),
            "apps": _spec(apps=("gamess", "sjeng", "perlbench", "dealII")),
            "alpha": _spec(alpha=1.1),
            "horizon_intervals": _spec(horizon_intervals=5),
            "charge_overheads": _spec(charge_overheads=False),
        }
        assert set(variants) == {f.name for f in dataclasses.fields(RunSpec)}
        base = _spec()
        for name, spec in variants.items():
            assert getattr(spec, name) != getattr(base, name), name
            assert spec.fingerprint != base.fingerprint, name

    def test_wire_roundtrip_preserves_fingerprint(self):
        spec = _spec()
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_wire_version_skew_is_refused(self):
        """A sidecar whose recorded fingerprint disagrees with the one
        this code recomputes must be refused, not re-executed against
        the wrong entry."""
        data = json.loads(_spec(rm_kind="idle", model=None).to_json())
        data["fingerprint"] = "f" * 32
        with pytest.raises(ValueError, match="mismatch"):
            RunSpec.from_json(json.dumps(data))

    def test_wire_without_fingerprint_is_accepted(self):
        spec = _spec(rm_kind="idle", model=None)
        data = json.loads(spec.to_json())
        data.pop("fingerprint")
        assert RunSpec.from_json(json.dumps(data)) == spec

    def test_wire_format_with_wave_still_parses(self):
        """Attestation sidecars written while RunSpec still carried the
        event-loop mode hold ``"wave": null``."""
        spec = _spec()
        legacy = json.loads(spec.to_json())
        legacy["wave"] = None
        parsed = RunSpec.from_json(json.dumps(legacy))
        assert parsed == spec and parsed.fingerprint == spec.fingerprint
        assert "wave" not in json.loads(parsed.to_json())

    def test_alpha_one_is_canonicalised(self):
        assert _spec(alpha=1.0).alpha is None
        assert _spec(alpha=1.0).fingerprint == _spec().fingerprint
        # ... which also makes explicit-1.0 legal on the idle baseline
        assert _spec(rm_kind="idle", model=None, alpha=1.0).alpha is None

    def test_dedupe(self):
        campaign = Campaign(SPECS + SPECS)
        assert len(campaign) == len(SPECS)
        assert campaign.unique_specs == SPECS


class TestResolveWorkers:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "7")
        assert resolve_campaign_workers(3, 100) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "5")
        assert resolve_campaign_workers(None, 100) == 5

    def test_env_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_campaign_workers(None, 100)

    def test_auto_serial_for_small_campaigns(self, monkeypatch):
        monkeypatch.delenv("REPRO_CAMPAIGN_WORKERS", raising=False)
        assert resolve_campaign_workers(None, 2) == 1

    def test_clamped_to_pending(self):
        assert resolve_campaign_workers(16, 3) == 3
        assert resolve_campaign_workers(4, 0) == 1


class TestDatabaseRebinding:
    def _fake_build(self, calls):
        def build(suite, system, seed=2020, **kw):
            calls.append((system.n_cores, seed))
            return SimDatabase(system=system, apps={}, records={})

        return build

    def test_any_core_count_reuses_a_seed_build(self, monkeypatch, tmp_path):
        calls = []
        monkeypatch.setattr(
            campaign_database, "build_database", self._fake_build(calls)
        )
        # rebindings persist to the disk cache; point it away from the
        # real one so the fake (empty) databases cannot pollute it
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        campaign_database.clear_database_cache()
        try:
            db8 = get_database(8, seed=31)
            db4 = get_database(4, seed=31)  # must rebind, not rebuild
            db2 = get_database(2, seed=31)
            assert calls == [(8, 31)]
            assert db4.records is db8.records and db2.records is db8.records
            assert db4.system.n_cores == 4 and db2.system.n_cores == 2
            # a different seed is a genuinely new build
            get_database(4, seed=32)
            assert calls == [(8, 31), (4, 32)]
        finally:
            campaign_database.clear_database_cache()


class TestResultJson:
    def test_roundtrip_is_exact(self, full_db):
        db = get_database(4, SEED)
        for spec in (SPECS[0], SPECS[3], SPECS[4]):
            result = run_workload(
                db, spec.rm_kind, spec.model, spec.apps,
                horizon_intervals=spec.horizon_intervals,
                charge_overheads=spec.charge_overheads,
            )
            assert result_from_json(result_to_json(result)) == result

    def test_roundtrip_with_history(self, full_db):
        from repro.core.managers import make_rm
        from repro.core.perf_models import Model3
        from repro.simulator.rmsim import MulticoreRMSimulator

        db = get_database(4, SEED)
        sim = MulticoreRMSimulator(
            db, make_rm("rm3", db.system, Model3()), collect_history=True
        )
        result = sim.run(list(SPECS[3].apps), horizon_intervals=3)
        assert result.history  # non-trivial history exercised
        assert result_from_json(result_to_json(result)) == result


class TestEngineDifferential:
    """The acceptance contract: engine == serial reference, bit for bit."""

    def test_execute_matches_serial_reference(self, full_db):
        db = get_database(4, SEED)
        for spec in SPECS:
            want = run_workload(
                db, spec.rm_kind, spec.model, spec.apps,
                horizon_intervals=spec.horizon_intervals,
                charge_overheads=spec.charge_overheads,
            )
            assert execute_spec(spec) == want, spec.label()

    def test_alpha_path_matches_inline_construction(self, full_db):
        from dataclasses import replace

        from repro.core.managers import make_rm
        from repro.core.perf_models import Model3
        from repro.core.qos import QoSPolicy
        from repro.simulator.rmsim import MulticoreRMSimulator

        db = get_database(4, SEED)
        spec = _spec(alpha=1.1)
        system = replace(db.system, qos_alpha=1.1)
        rm = make_rm("rm3", system, Model3(), qos=QoSPolicy(1.1))
        want = MulticoreRMSimulator(db, rm).run(
            list(spec.apps), horizon_intervals=spec.horizon_intervals
        )
        assert execute_spec(spec) == want

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_parallel_bit_identical_to_serial(self, full_db, n_workers):
        serial = run_campaign(SPECS, n_workers=1)
        clear_result_memo()
        parallel = run_campaign(SPECS, n_workers=n_workers)
        assert parallel.stats.workers == n_workers
        for spec in SPECS:
            assert parallel[spec] == serial[spec], spec.label()


class TestResultStore:
    def test_warm_memo_skips_simulation(self, full_db, monkeypatch):
        first = run_campaign(SPECS[:3])

        def boom(spec):
            raise AssertionError(f"simulated a warm spec: {spec.label()}")

        monkeypatch.setattr(campaign_executor, "_simulate", boom)
        second = run_campaign(SPECS[:3])
        assert second.stats.simulated == 0
        assert second.stats.cached == 3
        for spec in SPECS[:3]:
            assert second[spec] == first[spec]

    def test_disk_cache_survives_memo_clear(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        first = run_campaign(SPECS[:3])
        assert len(list(tmp_path.glob("*.json"))) == 3

        clear_result_memo()
        assert memo_size() == 0
        monkeypatch.setattr(
            campaign_executor, "_simulate",
            lambda spec: (_ for _ in ()).throw(AssertionError("simulated")),
        )
        second = run_campaign(SPECS[:3])
        assert second.stats.simulated == 0
        for spec in SPECS[:3]:
            assert second[spec] == first[spec]

    def test_corrupt_disk_entry_is_resimulated(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = SPECS[0]
        first = run_campaign([spec])
        (tmp_path / f"{spec.fingerprint}.json").write_text("{not json")
        clear_result_memo()
        second = run_campaign([spec])
        assert second.stats.simulated == 1
        assert second[spec] == first[spec]

    def test_missing_spec_raises(self, full_db):
        results = run_campaign(SPECS[:1])
        with pytest.raises(KeyError):
            results[SPECS[1]]


class TestResultStoreGC:
    """The on-disk store's LRU size cap (REPRO_RESULT_CACHE_MAX_MB)."""

    def _fill(self, tmp_path, monkeypatch, n=4, size=1024):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        files = []
        for i in range(n):
            f = tmp_path / f"{'f%032d' % i}.json"
            f.write_text("x" * size)
            os.utime(f, (1_000_000 + i, 1_000_000 + i))
            files.append(f)
        return files

    def test_prune_evicts_oldest_mtime_first(self, tmp_path, monkeypatch):
        files = self._fill(tmp_path, monkeypatch, n=4, size=1024)
        outcome = prune_result_cache(max_mb=2 * 1024 / (1024 * 1024))
        assert outcome["removed_files"] == 2
        assert not files[0].exists() and not files[1].exists()
        assert files[2].exists() and files[3].exists()
        assert outcome["kept_bytes"] <= 2 * 1024

    def test_prune_respects_env_cap(self, tmp_path, monkeypatch):
        self._fill(tmp_path, monkeypatch, n=3, size=1024)
        monkeypatch.setenv(
            "REPRO_RESULT_CACHE_MAX_MB", str(1024 / (1024 * 1024))
        )
        outcome = prune_result_cache()
        assert outcome["removed_files"] == 2
        assert outcome["kept_files"] == 1

    def test_prune_without_cap_is_noop(self, tmp_path, monkeypatch):
        files = self._fill(tmp_path, monkeypatch, n=2)
        monkeypatch.delenv("REPRO_RESULT_CACHE_MAX_MB", raising=False)
        outcome = prune_result_cache()
        assert outcome["removed_files"] == 0
        assert all(f.exists() for f in files)

    def test_non_positive_explicit_cap_means_unbounded(self, tmp_path, monkeypatch):
        """max_mb<=0 is 'unbounded' exactly like the env var — it must
        not be read as 'evict everything'."""
        files = self._fill(tmp_path, monkeypatch, n=3)
        for cap in (0, -5.0):
            outcome = prune_result_cache(cap)
            assert outcome["removed_files"] == 0
        assert all(f.exists() for f in files)

    def test_malformed_env_cap_fails_before_simulating(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_RESULT_CACHE_MAX_MB", "256MB")
        simulated = []
        monkeypatch.setattr(
            campaign_executor, "_simulate",
            lambda spec: simulated.append(spec),
        )
        clear_result_memo()
        with pytest.raises(ValueError, match="REPRO_RESULT_CACHE_MAX_MB"):
            run_campaign(SPECS[:1])
        assert simulated == []  # failed fast, no work lost afterwards

    def test_disk_hit_bumps_mtime_for_lru(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = SPECS[0]
        run_campaign([spec])
        file = tmp_path / f"{spec.fingerprint}.json"
        os.utime(file, (1_000_000, 1_000_000))
        clear_result_memo()
        run_campaign([spec])  # warm disk hit
        assert file.stat().st_mtime > 1_000_000

    def test_memo_hit_bumps_mtime_for_lru(self, full_db, monkeypatch, tmp_path):
        """Results served from the in-memory memo are still in use: their
        on-disk twins must stay LRU-hot or the prune evicts them."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = SPECS[0]
        run_campaign([spec])  # populates memo + disk
        file = tmp_path / f"{spec.fingerprint}.json"
        os.utime(file, (1_000_000, 1_000_000))
        run_campaign([spec])  # memo hit, no disk read
        assert file.stat().st_mtime > 1_000_000

    def test_campaign_enforces_cap_after_simulation(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        stale = self._fill(tmp_path, monkeypatch, n=2, size=200_000)
        monkeypatch.setenv("REPRO_RESULT_CACHE_MAX_MB", "0.1")
        clear_result_memo()
        results = run_campaign(SPECS[:2])
        assert results.stats.simulated == 2
        # the stale filler aged out; the fresh results survived
        assert not any(f.exists() for f in stale)
        for spec in SPECS[:2]:
            assert (tmp_path / f"{spec.fingerprint}.json").exists()

    def test_cache_stats_counts_store(self, tmp_path, monkeypatch):
        self._fill(tmp_path, monkeypatch, n=3, size=512)
        stats = cache_stats()
        assert stats["files"] == 3
        assert stats["bytes"] == 3 * 512

    def test_cli_cache_subcommand(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        self._fill(tmp_path, monkeypatch, n=3, size=1024)
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "results" in out and "3 entries" in out
        assert main(["cache", "--prune", "--max-mb", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "results: pruned 2 entries" in out
        assert main(["cache", "--prune"]) == 0  # no cap -> no-op
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        assert main(["cache"]) == 0
        assert "unset" in capsys.readouterr().out


class TestMergedPlan:
    def test_run_all_plan_dedupes_across_experiments(self):
        from repro.experiments.common import ExperimentConfig
        from repro.experiments.runner import _registry, plan_all

        cfg = ExperimentConfig(quick=True)
        campaign = plan_all(cfg)
        total = sum(len(m.specs(cfg.effective())) for m in _registry().values())
        assert len(campaign) < total  # fig6/fig9 share idle + RM3/Model3 runs
        # every unique (db, rm, model, apps, alpha, horizon, overheads)
        # combination appears exactly once
        fps = [s.fingerprint for s in campaign.unique_specs]
        assert len(fps) == len(set(fps))


def test_fingerprint_covers_database_identity():
    """Same run on a different core count or seed is a different result."""
    a = RunSpec(seed=1, n_cores=2, rm_kind="idle", model=None, apps=("x", "y"))
    b = RunSpec(seed=2, n_cores=2, rm_kind="idle", model=None, apps=("x", "y"))
    assert a.fingerprint != b.fingerprint
    assert default_system(2).qos_alpha == 1.0  # normalisation premise
