"""Integrity-layer tests: attestation, divergence detection, audits.

The contract under test (ISSUE 10): the bit-identical result contract is
*checked*, not assumed.  Every published result carries a digest +
provenance sidecar; a write to an occupied fingerprint byte-compares
first (different bytes = loud divergence event with both versions
quarantined); reads re-verify the digest so valid-JSON bit rot cannot
slip through; the distributed fabric cross-checks each done marker's
claimed digest against the stored bytes and demotes repeat offenders;
and ``repro verify`` audits the store by digest sweep and
deterministic-sample re-execution — all while faulted campaigns still
converge bit-identical to the fault-free serial oracle.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import settings
from repro.campaign import Campaign, RunSpec, clear_result_memo
from repro.campaign.attest import (
    ResultDivergenceError,
    attestation_stats,
    digest_text,
    divergence_stats,
    read_attestation,
    verify_store,
)
from repro.campaign.executor import execute_spec, run_campaign
from repro.campaign.journal import journal_status, read_journal
from repro.campaign.remote import Fabric, fabric_status, run_worker
from repro.campaign.results import (
    cache_stats,
    cached_result,
    prune_result_cache,
    quarantine_stats,
    result_to_json,
    store_result,
)
from repro.campaign.transport import FileTransport
from repro.cli import main as cli_main
from repro.testing import serial_oracle
from repro.util import faults

SEED = 2020
REPO = Path(__file__).resolve().parents[1]


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
    for k in (
        "REPRO_REMOTE",
        "REPRO_REMOTE_WORKERS",
        "REPRO_LEASE_TTL",
        "REPRO_LEASE_BATCH",
        "REPRO_REMOTE_GRACE",
        "REPRO_REMOTE_TICK",
        "REPRO_RESULT_CACHE",
        "REPRO_CAMPAIGN_WORKERS",
        "REPRO_VERIFY_READS",
        "REPRO_WORKER_ID",
    ):
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


def _remote_env(monkeypatch, store, *, workers=0, ttl=1.0, grace=10.0,
                tick=0.02, batch=4):
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
    monkeypatch.setenv("REPRO_REMOTE", "1")
    monkeypatch.setenv("REPRO_REMOTE_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_LEASE_TTL", str(ttl))
    monkeypatch.setenv("REPRO_REMOTE_GRACE", str(grace))
    monkeypatch.setenv("REPRO_REMOTE_TICK", str(tick))
    monkeypatch.setenv("REPRO_LEASE_BATCH", str(batch))


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
        assert divergences[0]["worker"] == "local"
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

    def test_verify_reads_opt_out(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        result = execute_spec(spec)
        fp = spec.fingerprint
        entry = tmp_path / f"{fp}.json"
        skewed = dataclasses.replace(result, uncore_j=result.uncore_j + 1.0)
        entry.write_text(result_to_json(skewed))
        clear_result_memo()
        monkeypatch.setenv("REPRO_VERIFY_READS", "0")
        settings.resolve()
        served = cached_result(fp)  # knob off: served unverified
        assert served is not None and served != result


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
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        clear_result_memo()
        report = verify_store(
            tmp_path, sample=1, cross_mode=True, out=lambda _: None
        )
        assert report["divergences"] == 0
        assert set(report["modes"]) == {"step", "scalar"}

    def test_sidecar_spec_with_wave_still_reexecutes(
        self, full_db, monkeypatch, tmp_path
    ):
        """Sidecars written while RunSpec carried the event-loop mode
        embed ``"wave": null`` in their spec; audits still re-execute
        them instead of reporting version skew."""
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = ISPECS[0]
        execute_spec(spec)
        sidecar = tmp_path / "attest" / f"{spec.fingerprint}.json"
        payload = json.loads(sidecar.read_text())
        assert "wave" not in payload["spec"]
        payload["spec"]["wave"] = None
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


class TestFabricDivergence:
    def test_divergent_worker_detected_demoted_and_converges(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        """The acceptance scenario, in-process: a 2-worker campaign with
        one worker publishing perturbed bytes (the ``divergent:`` fault)
        is detected, journaled, its evidence quarantined, the worker
        demoted after K strikes — and the campaign still converges
        bit-identical to the fault-free serial oracle."""
        _remote_env(monkeypatch, tmp_path, workers=0, ttl=5.0, batch=1)
        os.environ["REPRO_FAULT_PLAN"] = (
            "divergent:store=results,worker=wbad,times=2"
        )
        faults.prepare_for_campaign([])  # mint a shared ledger
        threads = []

        def _worker(worker_id):
            env_id = os.environ.get("REPRO_WORKER_ID")
            os.environ["REPRO_WORKER_ID"] = worker_id
            try:
                run_worker(str(tmp_path), worker_id=worker_id, idle_exit=3.0)
            finally:
                if env_id is None:
                    os.environ.pop("REPRO_WORKER_ID", None)

        # One poisoned worker first (claims everything, batch=1 keeps
        # the good worker in play), one clean worker.
        campaign = Campaign(ISPECS)
        runner = threading.Thread(
            target=_worker, args=("wbad",), daemon=True
        )
        runner.start()
        results = campaign.run()
        runner.join(timeout=30)

        for spec in ISPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()
        assert results.stats.divergences >= 1
        events = read_journal(
            next((tmp_path / "journal").glob("*.jsonl"))
        )
        divergences = [e for e in events if e["event"] == "divergence"]
        assert divergences and all(
            e["worker"] == "wbad" for e in divergences
        )
        # Both byte versions captured: the poisoned store bytes in the
        # coordinator's evidence dir, with provenance.
        ddir = tmp_path / "divergence"
        assert divergence_stats(tmp_path)["events"] >= 1
        metas = [
            json.loads((d / "meta.json").read_text())
            for d in ddir.iterdir() if d.is_dir()
        ]
        assert any(m.get("worker") == "wbad" for m in metas)
        demoted = [e for e in events if e["event"] == "worker_demoted"]
        assert [e["worker"] for e in demoted] == ["wbad"]
        fabric = Fabric(FileTransport(tmp_path))
        assert fabric.is_suspect("wbad")
        # Surfaced in campaign --status plumbing.
        status = fabric_status(tmp_path)
        assert "wbad" in status["suspects"]
        summary = journal_status(tmp_path)[0]
        assert summary["demoted_workers"] == ["wbad"]
        assert summary["divergences"] >= 2

    def test_suspect_worker_refuses_to_claim(
        self, full_db, monkeypatch, tmp_path
    ):
        fabric = Fabric(FileTransport(tmp_path))
        fabric.demote("wsus", strikes=2)
        for spec in ISPECS:
            fabric.publish_task(spec)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        completed = run_worker(str(tmp_path), worker_id="wsus", idle_exit=2.0)
        assert completed == 0
        assert fabric.leased() == []

    def test_done_marker_digest_mismatch_reassigned_clean(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        """One divergence (< K strikes): lease expires, work reassigns,
        the second execution converges — no demotion."""
        _remote_env(monkeypatch, tmp_path, workers=0, ttl=5.0, batch=4)
        os.environ["REPRO_FAULT_PLAN"] = (
            "divergent:store=results,worker=w1,times=1"
        )
        faults.prepare_for_campaign([])
        spec = ISPECS[0]

        def _worker(worker_id):
            os.environ["REPRO_WORKER_ID"] = worker_id
            try:
                run_worker(str(tmp_path), worker_id=worker_id, idle_exit=3.0)
            finally:
                os.environ.pop("REPRO_WORKER_ID", None)

        runner = threading.Thread(target=_worker, args=("w1",), daemon=True)
        runner.start()
        results = Campaign([spec]).run()
        runner.join(timeout=30)
        assert results[spec] == oracle[spec.fingerprint]
        assert results.stats.divergences == 1
        events = read_journal(next((tmp_path / "journal").glob("*.jsonl")))
        assert not [e for e in events if e["event"] == "worker_demoted"]
        fabric = Fabric(FileTransport(tmp_path))
        assert not fabric.is_suspect("w1")


class TestSubprocessFabric:
    def test_two_subprocess_workers_one_divergent(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        """Real worker subprocesses: the ``worker=`` targeted fault fires
        only inside the poisoned worker; the campaign completes
        bit-identical with the divergence journaled."""
        _remote_env(monkeypatch, tmp_path, workers=2, ttl=5.0, batch=1)
        # Spawned workers get ids w<i>-<coordinator pid>: prefix-match w1.
        os.environ["REPRO_FAULT_PLAN"] = (
            "divergent:store=results,worker=w1,times=2"
        )
        results = Campaign(ISPECS).run()
        for spec in ISPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()
        events = read_journal(next((tmp_path / "journal").glob("*.jsonl")))
        divergences = [e for e in events if e["event"] == "divergence"]
        fired = len(list(settings.current().fault_ledger.glob("d0-*")))
        # The fault may fire 0-2 times depending on which worker wins
        # claims; every fire must surface as a journaled divergence.
        assert len(divergences) == fired
        assert results.stats.divergences == fired
