"""Distributed campaign fabric tests: transports, leases, convergence.

The contract under test (ISSUE 9): a campaign dispatched through the
lease-based fabric — any worker count, any transport, any transport-level
failure pattern (worker death, partition, duplicate delivery, torn lease
writes, coordinator kill) — merges to results bit-identical to the clean
serial oracle.  The content-addressed fingerprint contract makes every
reassignment/duplicate execution safe; these tests prove the fabric
actually converges through each failure mode.
"""

from __future__ import annotations

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
from repro.campaign.journal import (
    CampaignJournal,
    journal_dir,
    journal_status,
    protected_fingerprints,
    read_journal,
    worker_attribution,
)
from repro.campaign.remote import (
    COORDINATOR_ID,
    Fabric,
    fabric_status,
    run_worker,
)
from repro.campaign.results import prune_result_cache
from repro.campaign.transport import (
    FileTransport,
    SSHTransport,
    transport_for,
)
from repro.testing import serial_oracle
from repro.util import faults
from repro.util.diskcache import exclusive_create_text

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


RSPECS = [
    _spec(rm_kind="idle", model=None),
    _spec(rm_kind="rm1"),
    _spec(),
]


def _ordered(specs):
    """The executor's deterministic dispatch order (spec=N ordinals)."""
    return sorted(specs, key=lambda s: (s.seed, s.n_cores, s.fingerprint))


@pytest.fixture(autouse=True)
def _fabric_env(monkeypatch):
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
    return serial_oracle(RSPECS)


def _bash_runner(script: str, stdin: str = ""):
    """Local stand-in for the SSH hop: run the identical shell scripts."""
    proc = subprocess.run(
        ["bash", "-c", script], input=stdin, capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def _remote_env(monkeypatch, store, *, workers=0, ttl=1.0, grace=10.0,
                tick=0.02, batch=4):
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
    monkeypatch.setenv("REPRO_REMOTE", "1")
    monkeypatch.setenv("REPRO_REMOTE_WORKERS", str(workers))
    monkeypatch.setenv("REPRO_LEASE_TTL", str(ttl))
    monkeypatch.setenv("REPRO_REMOTE_GRACE", str(grace))
    monkeypatch.setenv("REPRO_REMOTE_TICK", str(tick))
    monkeypatch.setenv("REPRO_LEASE_BATCH", str(batch))


def _start_worker(store, worker_id, idle_exit=2.0):
    """In-process fabric worker (thread): fast, shares the fault plan."""
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(store=str(store), worker_id=worker_id,
                    idle_exit=idle_exit),
        daemon=True,
    )
    thread.start()
    return thread


def _assert_matches_oracle(results, oracle):
    for spec in RSPECS:
        assert results[spec] == oracle[spec.fingerprint]


class TestTransportPrimitives:
    def test_file_transport_roundtrip(self, tmp_path):
        t = FileTransport(tmp_path)
        assert t.put("a/b.json", "one")
        assert t.get("a/b.json") == "one"
        assert t.put("a/b.json", "two")  # atomic overwrite
        assert t.get("a/b.json") == "two"
        assert t.put_new("a/c.json", "x")
        assert not t.put_new("a/c.json", "y")  # exclusive: second loses
        assert t.get("a/c.json") == "x"
        assert sorted(t.listdir("a")) == ["b.json", "c.json"]
        age = t.age("a/b.json")
        assert age is not None and age < 60
        assert t.delete("a/c.json")
        assert not t.delete("a/c.json")
        assert t.get("a/c.json") is None
        assert t.age("a/c.json") is None
        assert t.listdir("missing") == []
        assert t.local_path("a/b.json") == tmp_path / "a/b.json"

    def test_exclusive_create_is_o_excl(self, tmp_path):
        path = tmp_path / "lease.json"
        assert exclusive_create_text(path, "w1")
        assert not exclusive_create_text(path, "w2")
        assert path.read_text() == "w1"  # the loser changed nothing

    def test_ssh_transport_same_protocol_via_shell(self, tmp_path):
        """The SSH scripts, run through a local shell, honour the same
        six-primitive contract — including noclobber exclusivity."""
        t = SSHTransport("nowhere.invalid", str(tmp_path),
                         runner=_bash_runner)
        assert t.local_path("x") is None
        assert t.put("a/b.json", "one\n")
        assert t.get("a/b.json") == "one\n"
        assert t.put("a/b.json", "two\n")
        assert t.get("a/b.json") == "two\n"
        assert t.put_new("a/c.json", "x")
        assert not t.put_new("a/c.json", "y")  # set -C refuses
        assert (tmp_path / "a" / "c.json").read_text() == "x"
        assert sorted(t.listdir("a")) == ["b.json", "c.json"]
        age = t.age("a/b.json")
        assert age is not None and age < 60
        assert t.delete("a/c.json")
        assert not t.delete("a/c.json")
        assert t.get("a/c.json") is None
        assert t.age("a/c.json") is None
        assert t.listdir("missing") == []
        # no torn tmp files left behind by the cat-then-mv publish
        assert not list(tmp_path.rglob("*.tmp"))

    def test_transport_for_parses_addresses(self, tmp_path):
        t = transport_for(str(tmp_path))
        assert isinstance(t, FileTransport) and t.root == tmp_path
        s = transport_for("ssh://user@host/var/store")
        assert isinstance(s, SSHTransport)
        assert s.host == "user@host" and s.root == "/var/store"
        with pytest.raises(ValueError, match="ssh"):
            transport_for("ssh://hostonly")


class TestSpecWire:
    def test_roundtrip_preserves_fingerprint(self, full_db):
        spec = RSPECS[2]
        again = RunSpec.from_json(spec.to_json())
        assert again == spec
        assert again.fingerprint == spec.fingerprint

    def test_version_skew_is_refused(self, full_db):
        """A worker whose recomputed fingerprint disagrees with the
        publisher's must refuse the task, not mis-file a result."""
        data = json.loads(RSPECS[0].to_json())
        data["fingerprint"] = "f" * 32
        with pytest.raises(ValueError, match="mismatch"):
            RunSpec.from_json(json.dumps(data))

    def test_wire_without_fingerprint_is_accepted(self, full_db):
        data = json.loads(RSPECS[0].to_json())
        data.pop("fingerprint")
        assert RunSpec.from_json(json.dumps(data)) == RSPECS[0]


class TestFabricProtocol:
    def test_claim_contention_one_winner(self, tmp_path):
        fabric = Fabric(FileTransport(tmp_path))
        assert fabric.claim("abcd", "w1")
        assert not fabric.claim("abcd", "w2")
        assert fabric.lease_worker("abcd") == "w1"
        assert fabric.lease_owned("abcd", "w1")
        assert not fabric.lease_owned("abcd", "w2")
        assert fabric.break_lease("abcd")
        assert fabric.lease_worker("abcd") is None
        assert fabric.claim("abcd", "w2")  # reclaimable once broken

    def test_torn_lease_reads_as_ownerless(self, tmp_path):
        fabric = Fabric(FileTransport(tmp_path))
        assert fabric.claim("abcd", "w1")
        lease = tmp_path / Fabric.lease_path("abcd")
        lease.write_text('{"worker": "w1')  # torn mid-write
        assert fabric.lease_worker("abcd") is None
        assert fabric.lease_age("abcd") is not None  # expiry still works

    def test_heartbeat_and_done_markers(self, tmp_path):
        fabric = Fabric(FileTransport(tmp_path))
        fabric.heartbeat("w1")
        age = fabric.heartbeat_age("w1")
        assert age is not None and age < 60
        assert fabric.workers() == ["w1"]
        fabric.publish_done("abcd", "w1", 1.25)
        assert fabric.done_fps() == ["abcd"]
        marker = fabric.read_done("abcd")
        assert marker["worker"] == "w1" and marker["s"] == 1.25
        fabric.publish_failed("abcd", "w1", 2, "boom", permanent=False)
        markers = fabric.failed_markers()
        assert markers and markers[0]["attempt"] == 2
        assert markers[0]["permanent"] is False
        fabric.clear(["abcd"])
        assert fabric.done_fps() == []
        assert fabric.failed_markers() == []
        assert fabric.workers() == ["w1"]  # heartbeats survive cleanup

    def test_partition_fault_suppresses_heartbeat(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "partition:worker=w1,times=2")
        fabric = Fabric(FileTransport(tmp_path))
        fabric.heartbeat("w1")  # suppressed (1)
        fabric.heartbeat("w1")  # suppressed (2)
        assert fabric.heartbeat_age("w1") is None
        fabric.heartbeat("w2")  # different worker: unaffected
        assert fabric.heartbeat_age("w2") is not None
        fabric.heartbeat("w1")  # times exhausted: lands
        assert fabric.heartbeat_age("w1") is not None

    def test_dupdone_fault_publishes_twice(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "dupdone:fp=ab")
        fabric = Fabric(FileTransport(tmp_path))
        puts = []
        original = fabric.transport.put

        def counting_put(rel, text):
            puts.append(rel)
            return original(rel, text)

        fabric.transport.put = counting_put
        fabric.publish_done("abcd", "w1", 0.5)
        assert puts.count(Fabric.done_path("abcd")) == 2
        fabric.publish_done("efgh", "w1", 0.5)  # untargeted: once
        assert puts.count(Fabric.done_path("efgh")) == 1

    def test_torn_lease_write_fault(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "truncate:store=lease")
        fabric = Fabric(FileTransport(tmp_path))
        assert fabric.claim("abcd", "w1")
        # the claim won but its lease file was torn mid-write: it reads
        # as ownerless, and only TTL expiry can recycle it
        assert fabric.lease_worker("abcd") is None
        assert not fabric.claim("abcd", "w2")  # file still occupies the slot


class TestWorkerLoop:
    def test_worker_drains_published_tasks(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        store = tmp_path / "store"
        _remote_env(monkeypatch, store)
        fabric = Fabric(FileTransport(store))
        for spec in RSPECS:
            fabric.publish_task(spec)
        completed = run_worker(str(store), worker_id="solo", idle_exit=0.5)
        assert completed == len(RSPECS)
        for spec in RSPECS:
            marker = fabric.read_done(spec.fingerprint)
            assert marker["worker"] == "solo"
            stored = (store / f"{spec.fingerprint}.json")
            assert stored.is_file()
        assert fabric.leased() == []  # all leases released

    def test_worker_refuses_skewed_task(
        self, full_db, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        _remote_env(monkeypatch, store)
        fabric = Fabric(FileTransport(store))
        data = json.loads(RSPECS[0].to_json())
        fp = data["fingerprint"]
        data["fingerprint"] = "f" * 32  # publisher claims different code
        fabric.transport.put(Fabric.task_path(fp), json.dumps(data))
        completed = run_worker(str(store), worker_id="solo", idle_exit=0.5)
        assert completed == 0
        markers = fabric.failed_markers()
        assert markers and markers[0]["permanent"]
        assert "mismatch" in markers[0]["error"]

    def test_worker_over_ssh_transport_pushes_results(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """A worker on the SSH transport (driven through a local shell)
        runs the same protocol and pushes result bytes through the
        transport's atomic publish."""
        shared = tmp_path / "shared"
        local = tmp_path / "worker-local"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(local))
        monkeypatch.setenv("REPRO_LEASE_TTL", "2.0")
        monkeypatch.setenv("REPRO_REMOTE_TICK", "0.02")
        spec = RSPECS[0]
        staging = Fabric(FileTransport(shared))
        staging.publish_task(spec)
        completed = run_worker(
            f"ssh://nowhere.invalid{shared}",
            worker_id="sshw",
            idle_exit=0.5,
            runner=_bash_runner,
        )
        assert completed == 1
        text = (shared / f"{spec.fingerprint}.json").read_text()
        from repro.campaign.results import result_from_json

        assert result_from_json(text) == oracle[spec.fingerprint]
        assert staging.read_done(spec.fingerprint)["worker"] == "sshw"


class TestRemoteCampaign:
    def test_thread_workers_match_oracle(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """Fault-free distributed run: workers claim disjoint leases,
        the merged results equal the serial oracle, the journal carries
        per-worker attribution, and the fabric is cleaned up."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=5.0, grace=30.0, batch=1)
        workers = [_start_worker(store, f"tw{i}") for i in (1, 2)]
        results = Campaign(RSPECS).run()
        _assert_matches_oracle(results, oracle)
        for thread in workers:
            thread.join(timeout=30)
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["remote"]
        assert summary["done"] == len(RSPECS)
        attribution = worker_attribution(
            read_journal(Path(summary["path"]))
        )
        assert sum(w["done"] for w in attribution.values()) == len(RSPECS)
        assert all(name.startswith("tw") for name in attribution)
        # fabric dissolved: only heartbeats remain
        assert not (store / "fabric" / "tasks").is_dir() or not list(
            (store / "fabric" / "tasks").iterdir()
        )
        assert fabric_status(store)["leases"] == []

    def test_no_workers_degrades_to_coordinator(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """Graceful degradation: nobody claims, so after the grace
        period the coordinator executes everything itself — under the
        same lease protocol — and the run still completes."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=0.5, grace=0.1)
        results = Campaign(RSPECS).run()
        _assert_matches_oracle(results, oracle)
        events = read_journal(
            Path(journal_status(store)[0]["path"])
        )
        assert any(ev["event"] == "fallback" for ev in events)
        attribution = worker_attribution(events)
        assert set(attribution) == {COORDINATOR_ID}
        assert attribution[COORDINATOR_ID]["done"] == len(RSPECS)

    def test_remote_requires_store(self, monkeypatch):
        monkeypatch.setenv("REPRO_REMOTE", "1")
        with pytest.raises(ValueError, match="REPRO_RESULT_CACHE"):
            Campaign(RSPECS).run()

    def test_partitioned_worker_lease_expires_and_converges(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """The canonical duplicate-execution scenario: the worker's
        heartbeats never land, its lease expires mid-run and the
        coordinator re-executes — both copies publish identical bytes."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=0.4, grace=0.2, batch=3)
        ordinal1 = _ordered(RSPECS)[0].fingerprint
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            f"partition:worker=pw,times=1000;hang:fp={ordinal1},secs=1.2",
        )
        worker = _start_worker(store, "pw1", idle_exit=1.0)
        results = Campaign(RSPECS).run()
        worker.join(timeout=30)
        _assert_matches_oracle(results, oracle)
        assert results.stats.lease_expiries >= 1
        events = read_journal(Path(journal_status(store)[0]["path"]))
        assert any(ev["event"] == "lease_expired" for ev in events)
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["done"] == len(RSPECS)

    def test_duplicate_completion_converges(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=5.0, grace=30.0)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "dupdone:times=3")
        worker = _start_worker(store, "dw1")
        results = Campaign(RSPECS).run()
        worker.join(timeout=30)
        _assert_matches_oracle(results, oracle)
        attribution = worker_attribution(
            read_journal(Path(journal_status(store)[0]["path"]))
        )
        # duplicate deliveries must not inflate anyone's tally
        assert sum(w["done"] for w in attribution.values()) == len(RSPECS)

    def test_torn_lease_write_expires_and_converges(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """A lease torn mid-write reads as ownerless; nobody can claim
        the slot until the coordinator TTL-expires it, after which the
        work is executed normally."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=0.3, grace=0.15)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "truncate:store=lease")
        worker = _start_worker(store, "tl1")
        results = Campaign(RSPECS).run()
        worker.join(timeout=30)
        _assert_matches_oracle(results, oracle)
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["done"] == len(RSPECS)

    def test_torn_result_write_reassigned_and_converges(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """A result entry torn between store write and marker publish:
        the marker advertises an unreadable result, so the coordinator
        drops marker + lease and the spec is simply re-executed."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, ttl=0.4, grace=0.2)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "truncate:store=results")
        worker = _start_worker(store, "tr1")
        results = Campaign(RSPECS).run()
        worker.join(timeout=30)
        _assert_matches_oracle(results, oracle)
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["done"] == len(RSPECS)


class TestSubprocessWorkers:
    def test_spawned_worker_crash_mid_spec_converges(
        self, full_db, tmp_path, monkeypatch, oracle
    ):
        """Worker death mid-spec (injected ``crash``, exit 13): the dead
        worker's lease goes stale, the coordinator breaks it and — with
        no live workers left — finishes the campaign itself."""
        store = tmp_path / "store"
        _remote_env(monkeypatch, store, workers=1, ttl=0.8, grace=0.3)
        monkeypatch.setenv("REPRO_FAULT_PLAN", "crash:spec=2")
        monkeypatch.setenv("REPRO_FAULT_LEDGER", str(tmp_path / "ledger"))
        results = Campaign(RSPECS).run()
        _assert_matches_oracle(results, oracle)
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["done"] == len(RSPECS)
        attribution = worker_attribution(
            read_journal(Path(summary["path"]))
        )
        # the coordinator picked up (at least) the dead worker's leavings
        assert COORDINATOR_ID in attribution

    def test_coordinator_kill_and_resume_mixed_provenance(
        self, full_db, tmp_path
    ):
        """ISSUE 9 satellite: journal resume with mixed provenance — a
        remote worker publishes some results, the coordinator is killed
        mid-sweep, and the resumed run (no workers this time) finishes
        the rest itself.  Zero lost, zero duplicated, oracle-identical."""
        store = tmp_path / "store"
        script = tmp_path / "campaign.py"
        script.write_text(
            "import sys\n"
            "from repro.campaign import run_campaign\n"
            "from repro.campaign.spec import RunSpec\n"
            "APPS = ('mcf', 'omnetpp', 'libquantum', 'xalancbmk')\n"
            "specs = [\n"
            "    RunSpec(seed=2020, n_cores=4, rm_kind=k, model=m,\n"
            "            apps=APPS, horizon_intervals=2)\n"
            "    for k, m in [('idle', None), ('rm1', 'Model3'),\n"
            "                 ('rm3', 'Model3')]\n"
            "]\n"
            "try:\n"
            "    results = run_campaign(specs)\n"
            "except KeyboardInterrupt:\n"
            "    sys.exit(21)\n"
            "print('simulated', results.stats.simulated)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_RESULT_CACHE"] = str(store)
        env["REPRO_REMOTE"] = "1"
        env["REPRO_REMOTE_WORKERS"] = "1"
        env["REPRO_LEASE_TTL"] = "0.6"
        env["REPRO_REMOTE_TICK"] = "0.02"
        # Generous grace for the first run: on a loaded box the spawned
        # worker's startup can exceed a short grace window, and the
        # coordinator would steal the whole sweep before w1 reports in —
        # the mixed-provenance scenario needs w1 to land completions.
        env["REPRO_REMOTE_GRACE"] = "30"
        # The hang keeps the worker busy on one spec so the interrupt
        # provably lands mid-sweep (all three would otherwise finish
        # within one coordinator tick); both directives fire once.
        env["REPRO_FAULT_PLAN"] = "interrupt:after=1;hang:spec=3,secs=5"
        env["REPRO_FAULT_LEDGER"] = str(tmp_path / "ledger")
        env.pop("REPRO_CAMPAIGN_WORKERS", None)

        first = subprocess.run(
            [sys.executable, str(script)], env=env, cwd=str(REPO),
            capture_output=True, text=True, timeout=300,
        )
        assert first.returncode == 21, first.stderr
        done_before = len(list(store.glob("*.json")))
        assert 1 <= done_before < 3  # partial progress survived
        summary = journal_status(store)[0]
        assert summary["interrupted"] and not summary["complete"]

        env["REPRO_REMOTE_WORKERS"] = "0"  # resume: coordinator-only
        env["REPRO_REMOTE_GRACE"] = "0.3"  # no workers: degrade fast
        second = subprocess.run(
            [sys.executable, str(script)], env=env, cwd=str(REPO),
            capture_output=True, text=True, timeout=300,
        )
        assert second.returncode == 0, second.stderr
        assert len(list(store.glob("*.json"))) == 3
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["runs"] == 2
        assert summary["done"] == 3 and summary["permanent_failures"] == 0
        attribution = worker_attribution(
            read_journal(Path(summary["path"]))
        )
        # mixed provenance: a spawned fabric worker AND the resumed
        # coordinator both contributed completions
        assert any(name.startswith("w1-") for name in attribution)
        assert COORDINATOR_ID in attribution
        # A result the worker published that the coordinator never lived
        # to harvest resurfaces as *cached* on resume (no done event), so
        # the attributed total may be one short of the spec count.
        assert 2 <= sum(w["done"] for w in attribution.values()) <= 3


class TestPruneProtection:
    def _fill(self, store, names, age=False):
        store.mkdir(parents=True, exist_ok=True)
        for i, name in enumerate(names):
            path = store / f"{name}.json"
            path.write_text("x" * 4096)
            if age:
                old = time.time() - 3600 + i
                os.utime(path, (old, old))

    def test_inflight_journal_pins_store_entries(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 9 satellite: ``repro cache --prune`` must not evict
        results an in-flight (resumable) campaign journal depends on."""
        store = tmp_path / "store"
        self._fill(store, ["aaaa", "bbbb"], age=True)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
        journal = CampaignJournal(
            journal_dir(store) / "cafe.jsonl", "cafe"
        )
        journal.begin(planned=3, unique=3, cached=0, pending=3, workers=1)
        journal.done("aaaa", 1, 0.1)
        assert protected_fingerprints(store) == {"aaaa"}
        outcome = prune_result_cache(0.000001)
        assert (store / "aaaa.json").is_file()  # pinned by the journal
        assert not (store / "bbbb.json").is_file()  # normal LRU victim
        assert outcome["removed_files"] == 1

    def test_completed_journal_releases_entries(
        self, tmp_path, monkeypatch
    ):
        store = tmp_path / "store"
        self._fill(store, ["aaaa"], age=True)
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
        journal = CampaignJournal(
            journal_dir(store) / "cafe.jsonl", "cafe"
        )
        journal.begin(planned=1, unique=1, cached=0, pending=1, workers=1)
        journal.done("aaaa", 1, 0.1)
        journal.complete(done=1, failed=0)
        assert protected_fingerprints(store) == frozenset()
        prune_result_cache(0.000001)
        assert not (store / "aaaa.json").is_file()


class TestStatusAttribution:
    def test_attribution_dedupes_duplicate_done(self):
        events = [
            {"event": "done", "t": 1.0, "fp": "aa", "worker": "w1"},
            {"event": "done", "t": 2.0, "fp": "aa", "worker": "w1"},  # dup
            {"event": "done", "t": 3.0, "fp": "bb", "worker": "w2"},
            {"event": "done", "t": 4.0, "fp": "cc"},  # local execution
            {"event": "claim", "t": 0.5, "worker": "w1", "count": 2},
            {"event": "lease_expired", "t": 5.0, "worker": "w1",
             "fp": "dd"},
        ]
        attribution = worker_attribution(events)
        assert attribution["w1"]["done"] == 1  # deduped
        assert attribution["w1"]["claims"] == 1
        assert attribution["w1"]["lease_expired"] == 1
        assert attribution["w2"]["done"] == 1
        assert attribution["local"]["done"] == 1
        assert attribution["w1"]["last_t"] == 5.0

    def test_status_cli_reports_workers_and_leases(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main as cli_main

        store = tmp_path / "store"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(store))
        monkeypatch.setenv("REPRO_LEASE_TTL", "30")
        journal = CampaignJournal(
            journal_dir(store) / "cafe.jsonl", "cafe"
        )
        journal.begin(planned=3, unique=3, cached=0, pending=3, workers=2)
        journal.remote_begin("file", 2, 3)
        journal.claim("w1", 2)
        journal.done("aa", 1, 0.5, worker="w1")
        journal.done("bb", 1, 0.5, worker="w2")
        fabric = Fabric(FileTransport(store))
        fabric.heartbeat("w1")
        fabric.claim("cc", "w1")
        assert cli_main(["campaign", "--status"]) == 0
        out = capsys.readouterr().out
        assert "worker w1: 1 done" in out
        assert "worker w2: 1 done" in out
        assert "fabric (lease TTL 30s):" in out
        assert "worker w1: live" in out
        assert "lease cc" in out

    def test_fabric_status_judges_liveness_by_ttl(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_LEASE_TTL", "1000")
        fabric = Fabric(FileTransport(tmp_path))
        fabric.heartbeat("fresh")
        fabric.claim("abcd", "fresh")
        status = fabric_status(tmp_path)
        assert status["workers"]["fresh"]["live"]
        assert status["leases"][0]["live"]
        monkeypatch.setenv("REPRO_LEASE_TTL", "0.1")
        settings.resolve()
        time.sleep(0.2)
        status = fabric_status(tmp_path)
        assert not status["workers"]["fresh"]["live"]
        assert not status["leases"][0]["live"]
