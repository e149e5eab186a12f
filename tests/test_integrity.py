"""Integrity-layer tests: attestation, divergence detection, audits.

The contract under test (ISSUE 10): the bit-identical result contract is
*checked*, not assumed.  Every published result carries a digest +
provenance sidecar; a write to an occupied fingerprint byte-compares
first (different bytes = loud divergence event with both versions
quarantined); reads re-verify the digest so valid-JSON bit rot cannot
slip through; and ``repro verify`` audits the store by digest sweep and
deterministic-sample re-execution — all while faulted campaigns still
converge bit-identical to the fault-free serial oracle.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import settings
from repro.campaign import RunSpec, clear_result_memo
from repro.campaign.attest import (
    ATTEST_DIRNAME,
    ResultDivergenceError,
    attestation_stats,
    digest_text,
    divergence_stats,
    read_attestation,
    verify_store,
)
from repro.campaign.executor import execute_spec, run_campaign
from repro.campaign.journal import journal_status, read_journal
from repro.campaign.results import (
    cache_stats,
    cached_result,
    prune_result_cache,
    quarantine_stats,
    result_to_json,
    store_result,
)
from repro.cli import main as cli_main
from repro.simulator.rmsim import MulticoreRMSimulator
from repro.testing import serial_oracle
from repro.util import faults

SEED = 2020


def _spec(**kw) -> RunSpec:
    base = dict(
        seed=SEED, n_cores=4, rm_kind="rm3", model="Model3",
        apps=("mcf", "omnetpp", "libquantum", "xalancbmk"),
        horizon_intervals=2,
    )
    base.update(kw)
    return RunSpec(**base)


ISPECS = [
    _spec(rm_kind="idle", model=None),
    _spec(rm_kind="rm1"),
    _spec(),
]


@pytest.fixture(autouse=True)
def _integrity_env(monkeypatch):
    """Isolate every test from fault-plan state and the result memo."""
    clear_result_memo()
    faults.reset()
    saved = {
        k: os.environ.pop(k, None)
        for k in ("REPRO_FAULT_PLAN", "REPRO_FAULT_LEDGER")
    }
    for k in ("REPRO_RESULT_CACHE", "REPRO_CAMPAIGN_WORKERS"):
        monkeypatch.delenv(k, raising=False)
    yield
    for k, v in saved.items():
        if v is None:
            os.environ.pop(k, None)
        else:
            os.environ[k] = v
    faults.reset()
    clear_result_memo()


@pytest.fixture(scope="module")
def oracle(full_db):
    """Fault-free serial reference results, bypassing every store."""
    return serial_oracle(ISPECS)


class TestAttestation:
    def test_store_write_publishes_sidecar(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        fp = spec.fingerprint
        entry = tmp_path / f"{fp}.json"
        att = read_attestation(tmp_path, fp)
        assert att is not None
        assert att["fp"] == fp
        assert att["digest"] == digest_text(entry.read_text())
        assert att["bytes"] == len(entry.read_bytes())
        # Provenance records the heterogeneity axes that could skew bytes.
        prov = att["provenance"]
        for key in ("host", "python", "numpy", "native_kernels", "wave",
                    "result_version"):
            assert key in prov
        # The embedded spec round-trips to the same fingerprint, so
        # audits can re-execute from the store alone.
        embedded = RunSpec.from_json(json.dumps(att["spec"], sort_keys=True))
        assert embedded.fingerprint == fp

    def test_identical_duplicate_write_merges(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        before = (tmp_path / f"{spec.fingerprint}.json").read_text()
        store_result(spec.fingerprint, result, spec=spec)  # duplicate
        after = (tmp_path / f"{spec.fingerprint}.json").read_text()
        assert before == after
        assert divergence_stats(tmp_path)["events"] == 0

    def test_coverage_stats(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        for spec in ISPECS[:2]:
            execute_spec(spec)
        stats = cache_stats()
        assert stats["files"] == 2
        assert stats["attested"] == 2
        assert stats["attestation_coverage"] == 1.0
        assert stats["divergence_events"] == 0
        # A pre-attestation entry (no sidecar) lowers coverage but is
        # still served: old stores keep working.
        (tmp_path / ("aa" * 16)).with_suffix(".json").write_text(
            (tmp_path / f"{ISPECS[0].fingerprint}.json").read_text()
        )
        cov = attestation_stats(tmp_path)
        assert cov["entries"] == 3 and cov["attested"] == 2
        assert 0.0 < cov["coverage"] < 1.0


class TestLocalDivergence:
    def test_duplicate_writer_divergence_quarantines_both_and_raises(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        stored_text = (tmp_path / f"{fp}.json").read_text()
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        with pytest.raises(ResultDivergenceError) as err:
            store_result(fp, skewed, spec=spec)
        assert err.value.fingerprint == fp
        # The slot is emptied — neither contested version is served.
        assert not (tmp_path / f"{fp}.json").exists()
        assert cached_result(fp) is None
        # Both byte versions survive as evidence with their provenance.
        evidence = tmp_path / "divergence" / fp
        assert (evidence / "stored.json").read_text() == stored_text
        assert (evidence / "incoming.json").read_text() == result_to_json(
            skewed
        )
        assert (evidence / "incoming.attest.json").is_file()
        meta = json.loads((evidence / "meta.json").read_text())
        assert meta["fp"] == fp
        assert set(meta["digests"]) == {"stored", "incoming"}
        # Separate tallies: divergence evidence is not corruption.
        assert divergence_stats(tmp_path)["events"] == 1
        assert quarantine_stats()["files"] == 0

    def test_campaign_fails_loudly_and_journals_divergence(
        self, full_db, monkeypatch, tmp_path
    ):
        from repro.campaign.executor import CampaignExecutionError

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        # Poison the occupied slot with a *self-consistent* rival version
        # (valid JSON, matching sidecar), then force the campaign's cache
        # probe to miss — the race where another writer publishes between
        # the probe and the store.  Byte-compare is the only detector.
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        (tmp_path / f"{fp}.json").write_text(result_to_json(skewed))
        from repro.campaign.attest import write_attestation

        write_attestation(tmp_path, fp, result_to_json(skewed), spec=spec)
        clear_result_memo()
        with monkeypatch.context() as probe_miss:
            probe_miss.setattr(
                "repro.campaign.executor.cached_result", lambda fp: None
            )
            with pytest.raises(CampaignExecutionError):
                run_campaign([spec])
        events = read_journal(
            next((tmp_path / "journal").glob("*.jsonl"))
        )
        divergences = [e for e in events if e["event"] == "divergence"]
        assert len(divergences) == 1
        assert divergences[0]["fp"] == fp
        summary = journal_status(tmp_path)[0]
        assert summary["divergences"] == 1
        # Divergence is permanent: no retry burned attempts on it.
        assert divergence_stats(tmp_path)["events"] == 1
        # The slot was emptied, so a fresh campaign converges cleanly.
        clear_result_memo()
        again = run_campaign([spec])
        assert again[spec] == result

    def test_rot_superseded_by_clean_publish(
        self, full_db, monkeypatch, tmp_path
    ):
        """An occupant failing its *own* sidecar digest is rot, not a
        divergence: the incoming clean bytes supersede it."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        entry = tmp_path / f"{fp}.json"
        rotted = entry.read_text().replace("1", "2", 1)
        entry.write_text(rotted)  # bytes no longer match the sidecar
        store_result(fp, result, spec=spec)  # clean duplicate write
        assert entry.read_text() == result_to_json(result)
        assert divergence_stats(tmp_path)["events"] == 0
        assert quarantine_stats()["files"] == 1  # the rotted capture


class TestReadVerification:
    def test_valid_json_bit_rot_caught_on_read(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        entry = tmp_path / f"{fp}.json"
        # Perturb one digit: still valid JSON, still a valid SimResult —
        # only the digest can tell.
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        entry.write_text(result_to_json(skewed))
        clear_result_memo()
        assert cached_result(fp) is None  # rejected, not served
        assert not entry.exists()  # quarantined
        assert quarantine_stats()["files"] == 1
        # Re-execution repopulates the slot cleanly.
        assert execute_spec(spec) == result

    def test_campaign_check_fails_on_a_per_read_store_sweep(
        self, full_db, monkeypatch
    ):
        """``bench --check campaign`` catches an O(entries) verification:
        with every read also re-reading every sidecar, one warm run's
        verification overhead exceeds the ceiling.  (Only the failing
        side is tested; the passing side is a timing.)"""
        from repro.bench import CAMPAIGN_CEILING, measure_verify_overhead
        from repro.campaign import results

        verify = results.contradicts_attestation

        def every_sidecar(root, fingerprint, text):
            for sidecar in (root / ATTEST_DIRNAME).glob("*.json"):
                read_attestation(root, sidecar.stem)
            return verify(root, fingerprint, text)

        monkeypatch.setattr(results, "contradicts_attestation", every_sidecar)
        (overhead,) = measure_verify_overhead(rounds=1)
        assert overhead > CAMPAIGN_CEILING
        assert results.contradicts_attestation is every_sidecar  # restored


class TestVerifyAudit:
    def test_clean_store_full_coverage_zero_divergences(
        self, full_db, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        for spec in ISPECS:
            execute_spec(spec)
        clear_result_memo()
        report = verify_store(tmp_path, sample=2)
        assert report["entries"] == len(ISPECS)
        assert report["coverage"] == 1.0
        assert report["divergences"] == 0
        assert report["reexecuted"] == 2
        out = capsys.readouterr().out
        assert "attestation coverage: 3/3 (100.0%)" in out
        assert "divergences: 0" in out

    def test_hand_flipped_byte_caught_and_quarantined(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        for spec in ISPECS:
            execute_spec(spec)
        fp = ISPECS[1].fingerprint
        entry = tmp_path / f"{fp}.json"
        text = entry.read_text()
        entry.write_text(text.replace("1", "2", 1))
        clear_result_memo()
        report = verify_store(tmp_path, sample=0, out=lambda _: None)
        assert report["digest_divergent"] == [fp]
        assert report["divergences"] == 1
        assert not entry.exists()  # retired from live service
        evidence = tmp_path / "divergence" / fp
        assert (evidence / "stored.json").is_file()
        assert (evidence / "meta.json").is_file()
        # The other entries are untouched and still verify clean.
        report2 = verify_store(tmp_path, sample=0, out=lambda _: None)
        assert report2["divergences"] == 0
        assert report2["entries"] == len(ISPECS) - 1

    def test_reexecution_catches_self_consistent_poison(
        self, full_db, monkeypatch, tmp_path
    ):
        """Wrong bytes published with a *matching* regenerated sidecar:
        the digest sweep passes, only re-execution can arbitrate."""
        from repro.campaign.attest import write_attestation

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        (tmp_path / f"{fp}.json").write_text(result_to_json(skewed))
        write_attestation(tmp_path, fp, result_to_json(skewed), spec=spec)
        clear_result_memo()
        sweep_only = verify_store(tmp_path, sample=0, out=lambda _: None)
        assert sweep_only["divergences"] == 0  # self-consistent: sweep blind
        report = verify_store(tmp_path, sample=1, out=lambda _: None)
        assert report["reexec_divergent"] == [fp]
        assert report["divergences"] == 1
        evidence = tmp_path / "divergence" / fp
        assert any(
            p.name.startswith("reexecuted-") for p in evidence.iterdir()
        )

    def test_cross_mode_witnesses(self, full_db, monkeypatch, tmp_path):
        """The one sampled spec is re-executed once on each event loop,
        not only reported under both mode names."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        clear_result_memo()
        calls = {"_loop_scalar": 0, "_loop_wave": 0}

        def spy(name):
            loop = getattr(MulticoreRMSimulator, name)

            def counted(self, *args):
                calls[name] += 1
                return loop(self, *args)

            return counted

        for name in calls:
            monkeypatch.setattr(MulticoreRMSimulator, name, spy(name))
        report = verify_store(
            tmp_path, sample=1, cross_mode=True, out=lambda _: None
        )
        assert report["divergences"] == 0
        assert set(report["modes"]) == {"step", "scalar"}
        assert calls == {"_loop_scalar": 1, "_loop_wave": 1}

    def test_sidecar_spec_with_wave_still_reexecutes(
        self, full_db, monkeypatch, tmp_path
    ):
        """Sidecars written while RunSpec carried the event-loop mode
        embed ``"wave": null`` in their spec, and those published by a
        worker of the deleted campaign fabric name it in their
        provenance; audits still re-execute them instead of reporting
        version skew."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        sidecar = tmp_path / "attest" / f"{spec.fingerprint}.json"
        payload = json.loads(sidecar.read_text())
        assert "wave" not in payload["spec"]
        assert "worker" not in payload["provenance"]
        payload["spec"]["wave"] = None
        payload["provenance"]["worker"] = "w1-123"
        sidecar.write_text(json.dumps(payload, sort_keys=True))
        clear_result_memo()
        report = verify_store(
            tmp_path, sample=1, cross_mode=True, out=lambda _: None
        )
        assert report["reexecuted"] == 1 and report["skewed"] == []
        assert report["divergences"] == 0

    def test_cli_verify_exit_codes(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        clear_result_memo()
        assert cli_main(["verify", "--sample", "1"]) == 0
        fp = spec.fingerprint
        entry = tmp_path / f"{fp}.json"
        entry.write_text(entry.read_text().replace("1", "2", 1))
        clear_result_memo()
        assert cli_main(["verify"]) == 1  # divergence found
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        assert cli_main(["verify"]) == 2  # nothing to verify


class TestPruneSafety:
    def test_prune_never_evicts_divergence_evidence(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        with pytest.raises(ResultDivergenceError):
            store_result(spec.fingerprint, skewed, spec=spec)
        assert divergence_stats(tmp_path)["events"] == 1
        outcome = prune_result_cache(max_mb=0.000001)
        assert outcome["kept_files"] == 0  # live entries all evicted...
        assert divergence_stats(tmp_path)["events"] == 1  # ...evidence kept

    def test_prune_removes_orphaned_sidecars(
        self, full_db, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        for spec in ISPECS[:2]:
            execute_spec(spec)
        outcome = prune_result_cache(max_mb=0.000001)
        assert outcome["removed_files"] == 2
        assert outcome["removed_sidecars"] == 2
        assert not list((tmp_path / "attest").glob("*.json"))


class TestPoolDivergence:
    def test_divergent_publishes_caught_by_verify_and_rerun_converges(
        self, full_db, monkeypatch, tmp_path, oracle, capsys
    ):
        """The acceptance scenario: pool workers publish perturbed bytes
        for two specs (the ``divergent:`` fault).  The campaign still
        returns the oracle's results; ``repro verify`` retires both
        entries, and a re-run resimulates exactly those two and
        converges."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        os.environ["REPRO_FAULT_PLAN"] = "divergent:store=results,times=2"
        results = run_campaign(ISPECS, n_workers=2)
        assert results.stats.workers == 2
        for spec in ISPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()
        fired = len(list(settings.current().fault_ledger.glob("d0-*")))
        assert fired == 2
        os.environ.pop("REPRO_FAULT_PLAN")
        faults.reset()

        clear_result_memo()
        capsys.readouterr()
        assert cli_main(["verify"]) == 1
        assert "divergences: 2" in capsys.readouterr().out
        assert divergence_stats(tmp_path)["events"] == 2

        clear_result_memo()
        again = run_campaign(ISPECS, n_workers=2)
        assert "(2 simulated, 1 cached)" in again.stats.summary()
        for spec in ISPECS:
            assert again[spec] == oracle[spec.fingerprint], spec.label()
        clear_result_memo()
        assert cli_main(["verify"]) == 0
        assert "divergences: 0" in capsys.readouterr().out
