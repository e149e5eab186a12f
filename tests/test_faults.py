"""Differential fault-injection tests: every recovery path vs. the oracle.

The contract under test (ISSUE 6): campaign execution is bit-identical to
the fault-free serial reference for *any failure pattern* — injected
failures, hangs, worker crashes, corrupted store entries, interrupts.
:mod:`repro.util.faults` provides the deterministic fault plans
(``REPRO_FAULT_PLAN``); :func:`repro.testing.serial_oracle` the
store-free reference results.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import settings
from repro.campaign import (
    CampaignExecutionError,
    RunSpec,
    clear_result_memo,
    quarantine_stats,
    run_campaign,
)
from repro.campaign import executor as campaign_executor
from repro.campaign.executor import CampaignStats, _ExecState
from repro.campaign.journal import (
    CampaignJournal,
    campaign_id,
    journal_dir,
    journal_status,
    protected_fingerprints,
    read_journal,
    summarize_events,
)
from repro.campaign.results import prune_result_cache
from repro.testing import serial_oracle, write_entry_many
from repro.util import faults
from repro.util.diskcache import (
    append_line,
    dir_stats,
    prune_lru,
    quarantine_entry,
)

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


#: Three fast specs: enough to distinguish per-spec targeting, retries
#: and partial progress without slowing the suite.
FSPECS = [
    _spec(rm_kind="idle", model=None),
    _spec(rm_kind="rm1"),
    _spec(),
]


def _ordered(specs):
    """The executor's deterministic dispatch order (spec=N ordinals)."""
    return sorted(specs, key=lambda s: (s.seed, s.n_cores, s.fingerprint))


#: One malformed value per knob that is parsed (typed, enum or boolean).
MALFORMED = [
    ("REPRO_RESULT_CACHE_MAX_MB", "256MB"),
    ("REPRO_CAMPAIGN_WORKERS", "two"),
    ("REPRO_BUILD_WORKERS", "two"),
    ("REPRO_SPEC_TIMEOUT", "forever"),
    ("REPRO_SIM_WAVE", "stepp"),
    ("REPRO_NO_NATIVE", "nope"),
    ("REPRO_FAULT_PLAN", "explode:fp=ab"),
]


def _race_for_fire(ledger, barrier):
    """Ledger-contention racer: exit 1 when this process won a fire."""
    plan = faults.FaultPlan(faults.parse_plan("fail:fp=ab,times=1"), ledger)
    barrier.wait(timeout=10)
    try:
        plan.on_spec("abcd")
    except faults.InjectedFault:
        os._exit(1)
    os._exit(0)


@pytest.fixture(autouse=True)
def _fault_env():
    """Isolate every test from fault-plan state and the result memo.

    Tests write the PLAN/LEDGER env vars directly, so restore them by
    hand rather than relying on monkeypatch having seen the mutation.
    """
    clear_result_memo()
    faults.reset()
    saved = {
        k: os.environ.pop(k, None)
        for k in ("REPRO_FAULT_PLAN", "REPRO_FAULT_LEDGER")
    }
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
    return serial_oracle(FSPECS)


class TestPlanParsing:
    def test_grammar_roundtrip(self):
        text = "crash:spec=2;fail:fp=ab,times=3;hang:fp=cd,secs=7;" \
               "truncate:store=results;corrupt:store=results,fp=ef;" \
               "interrupt:after=2"
        ds = faults.parse_plan(text)
        assert [d.kind for d in ds] == [
            "crash", "fail", "hang", "truncate", "corrupt", "interrupt",
        ]
        assert ds[0].ordinal == 2 and ds[1].times == 3 and ds[2].secs == 7
        assert ds[3].fp == ""  # store kinds default to match-any
        assert ds[4].store == "results" and ds[4].fp == "ef"
        assert ds[5].after == 2
        # to_text round-trips through the parser (prepare_for_campaign
        # re-exports plans this way)
        again = faults.parse_plan(";".join(d.to_text() for d in ds))
        assert [d.to_text() for d in again] == [d.to_text() for d in ds]

    @pytest.mark.parametrize("bad", [
        "explode:fp=ab",          # unknown kind
        "fail",                   # spec kind without a target
        "crash:times=2",          # ditto
        "truncate:fp=ab",         # store kind without store=
        "corrupt:store=nowhere",  # unknown store
        "fail:fp",                # key without '='
        "fail:fp=ab,zap=1",       # unknown key
        "fail:fp=ab,times=lots",  # bad int
        "hang:fp=ab,secs=long",   # bad float
        "dupdone:fp=ab",          # removed kind
        "corrupt:store=done",     # removed store
        "divergent:store=results,worker=w1",  # removed key
    ])
    def test_malformed_plans_fail_loudly(self, bad):
        with pytest.raises(ValueError, match="REPRO_FAULT_PLAN"):
            faults.parse_plan(bad)

    def test_empty_clauses_ignored(self):
        assert faults.parse_plan("; ;fail:fp=ab;")[0].kind == "fail"


class TestPlanMechanics:
    def test_times_bounds_fires_in_memory(self):
        plan = faults.FaultPlan(faults.parse_plan("fail:fp=ab,times=2"), None)
        for _ in range(2):
            with pytest.raises(faults.InjectedFault):
                plan.on_spec("abcdef")
        plan.on_spec("abcdef")  # third call: spent
        plan.on_spec("zzz")  # never matched

    def test_ledger_counts_shared_across_instances(self, tmp_path):
        """Two FaultPlan instances (stand-ins for two processes) sharing a
        ledger agree on fire counts — the crash-loop prevention."""
        directives = faults.parse_plan("fail:fp=ab,times=1")
        a = faults.FaultPlan(directives, tmp_path / "ledger")
        b = faults.FaultPlan(faults.parse_plan("fail:fp=ab,times=1"),
                             tmp_path / "ledger")
        with pytest.raises(faults.InjectedFault):
            a.on_spec("abcd")
        b.on_spec("abcd")  # sees a's durable fire: does not re-raise

    def test_ledger_fires_exactly_times_under_contention(self, tmp_path):
        """Processes racing for a directive's last fire cannot both win
        it: more racers than cores, released together, fire a
        ``times=1`` directive exactly once between them."""
        ctx = multiprocessing.get_context("fork")
        for round_ in range(30):
            ledger = tmp_path / f"ledger{round_}"
            barrier = ctx.Barrier(8)
            procs = [
                ctx.Process(target=_race_for_fire, args=(ledger, barrier))
                for _ in range(8)
            ]
            for proc in procs:
                proc.start()
            for proc in procs:
                proc.join(timeout=30)
            assert not any(proc.is_alive() for proc in procs)
            assert sum(proc.exitcode for proc in procs) == 1, round_
            assert len(list(ledger.glob("d0-*"))) == 1

    def test_store_write_hooks_damage_the_entry(self, tmp_path):
        plan = faults.FaultPlan(
            faults.parse_plan(
                "truncate:store=results,fp=e;corrupt:store=results,fp=m"
            ),
            None,
        )
        entry = tmp_path / "e.json"
        entry.write_text('{"ok": true}')
        plan.on_store_write("results", "e", entry)
        with pytest.raises(json.JSONDecodeError):
            json.loads(entry.read_text())
        entry2 = tmp_path / "m.json"
        entry2.write_text('{"ok": true}')
        plan.on_store_write("results", "m", entry2)
        with pytest.raises(json.JSONDecodeError):
            json.loads(entry2.read_text())
        # each directive was times=1: a second write is left intact
        entry.write_text('{"ok": 2}')
        plan.on_store_write("results", "e", entry)
        assert json.loads(entry.read_text()) == {"ok": 2}

    def test_interrupt_fires_once_at_threshold(self):
        plan = faults.FaultPlan(faults.parse_plan("interrupt:after=2"), None)
        plan.on_completion(1)
        with pytest.raises(KeyboardInterrupt):
            plan.on_completion(2)
        plan.on_completion(3)  # spent: a resumed run is not re-interrupted

    def test_no_plan_means_noop_hooks(self):
        assert faults.active_plan() is None
        faults.on_spec("anything")
        faults.on_store_write("results", "x", Path("/nonexistent"))
        faults.on_completion(10)

    def test_prepare_resolves_ordinals_and_mints_ledger(self):
        os.environ["REPRO_FAULT_PLAN"] = "crash:spec=2;fail:fp=ff"
        faults.prepare_for_campaign(["aaa", "bbb", "ccc"])
        knobs = settings.resolve()  # installed: survives re-resolution
        assert knobs.fault_ledger is not None
        plan = faults.active_plan()
        assert plan.directives[0].fp == "bbb"
        assert plan.directives[0].ordinal is None
        assert "fp=bbb" in knobs.fault_plan

    def test_prepare_out_of_range_ordinal_never_fires(self):
        os.environ["REPRO_FAULT_PLAN"] = "crash:spec=99"
        faults.prepare_for_campaign(["aaa", "bbb"])
        plan = faults.active_plan()
        plan.on_spec("aaa")  # would os._exit(13) if it matched
        plan.on_spec("bbb")


class TestSerialFaultDifferential:
    """Injected-fault campaigns must merge to the oracle, bit for bit."""

    def test_injected_failure_is_retried(self, full_db, oracle):
        target = _ordered(FSPECS)[0].fingerprint
        os.environ["REPRO_FAULT_PLAN"] = f"fail:fp={target},times=1"
        results = run_campaign(FSPECS, n_workers=1)
        assert results.stats.retries == 1
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()

    def test_hang_is_timed_out_and_retried(self, full_db, monkeypatch, oracle):
        target = _ordered(FSPECS)[0].fingerprint
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "1")
        monkeypatch.setattr(campaign_executor, "RETRY_BACKOFF", 0.01)
        os.environ["REPRO_FAULT_PLAN"] = f"hang:fp={target},secs=30"
        t0 = time.monotonic()
        results = run_campaign(FSPECS, n_workers=1)
        assert time.monotonic() - t0 < 20  # the 30 s hang was cut short
        assert results.stats.retries == 1
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()

    def test_exhausted_retries_raise_with_journal(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.setattr(campaign_executor, "SPEC_RETRIES", 1)
        monkeypatch.setattr(campaign_executor, "RETRY_BACKOFF", 0.01)
        ordered = _ordered(FSPECS)
        target = ordered[1].fingerprint
        os.environ["REPRO_FAULT_PLAN"] = f"fail:fp={target},times=99"
        with pytest.raises(CampaignExecutionError) as err:
            run_campaign(FSPECS, n_workers=1)
        assert set(err.value.failures) == {target}
        assert "InjectedFault" in err.value.failures[target]
        # the healthy specs still simulated and persisted
        for spec in (ordered[0], ordered[2]):
            assert (tmp_path / f"{spec.fingerprint}.json").exists()
        summary = journal_status(tmp_path)[0]
        assert summary["complete"] and summary["permanent_failures"] == 1
        assert summary["failed_attempts"] == 2  # first try + 1 retry

    def test_malformed_timeout_fails_before_simulating(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "forever")
        simulated = []
        monkeypatch.setattr(
            campaign_executor, "_simulate",
            lambda spec: simulated.append(spec),
        )
        with pytest.raises(ValueError, match="REPRO_SPEC_TIMEOUT"):
            run_campaign(FSPECS[:1])
        assert simulated == []

    @pytest.mark.parametrize("env, value", MALFORMED)
    def test_malformed_knob_fails_before_simulating(
        self, monkeypatch, tmp_path, env, value
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        monkeypatch.setenv(env, value)
        simulated = []
        monkeypatch.setattr(
            campaign_executor, "_simulate",
            lambda spec, wave=None: simulated.append(spec),
        )
        with pytest.raises(ValueError, match=env):
            run_campaign(FSPECS[:1])
        assert simulated == []
        assert not list(tmp_path.rglob("*.json"))  # not even a journal

    def test_malformed_cases_cover_every_parsed_knob(self):
        parsed = {
            settings.ENV[f.name]
            for f in dataclasses.fields(settings.Settings)
            if f.metadata["parse"] not in (Path, str)
        }
        assert {env for env, _ in MALFORMED} == parsed


class TestPoolFaultDifferential:
    def test_worker_crash_rebuilds_pool(self, full_db, monkeypatch, oracle):
        monkeypatch.setattr(campaign_executor, "RETRY_BACKOFF", 0.01)
        os.environ["REPRO_FAULT_PLAN"] = "crash:spec=1"
        results = run_campaign(FSPECS, n_workers=2)
        assert results.stats.pool_failures >= 1
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()

    def test_pool_decay_degrades_to_serial(self, full_db, monkeypatch, oracle):
        monkeypatch.setattr(campaign_executor, "POOL_FAILURES", 0)
        monkeypatch.setattr(campaign_executor, "RETRY_BACKOFF", 0.01)
        os.environ["REPRO_FAULT_PLAN"] = "crash:spec=1"
        results = run_campaign(FSPECS, n_workers=2)
        assert results.stats.pool_failures == 1
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()

    def test_queued_specs_do_not_trip_the_watchdog(
        self, full_db, monkeypatch, oracle
    ):
        """A long queue is not a wedged worker: 60 healthy 30 ms specs on
        2 workers take ~0.9 s to drain, almost twice the watchdog horizon
        (0.5 s here), yet each one runs far inside its deadline."""
        result = oracle[FSPECS[2].fingerprint]
        specs = [_spec(alpha=1.0 + i / 100) for i in range(1, 61)]

        def slow(spec, wave=None):
            time.sleep(0.03)
            return result

        monkeypatch.setattr(campaign_executor, "_simulate", slow)
        monkeypatch.setattr(campaign_executor, "_WEDGE_FACTOR", 1.0)
        monkeypatch.setattr(campaign_executor, "_WEDGE_SLACK_S", 0.0)
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "0.5")
        results = run_campaign(specs, n_workers=2)
        assert results.stats.pool_failures == 0
        assert results.stats.retries == 0
        assert all(results[spec] == result for spec in specs)

    def test_wedged_worker_is_abandoned(self, full_db, monkeypatch, oracle):
        """A worker that hangs far past a deadline it cannot enforce (the
        SIGALRM deadline is suppressed here) is abandoned with its pool;
        the rebuilt pool finishes the campaign without waiting it out."""
        target = _ordered(FSPECS)[0].fingerprint
        monkeypatch.setattr(
            campaign_executor, "_deadline",
            lambda seconds: contextlib.nullcontext(),
        )
        monkeypatch.setattr(campaign_executor, "_WEDGE_FACTOR", 1.0)
        monkeypatch.setattr(campaign_executor, "_WEDGE_SLACK_S", 0.0)
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "0.5")
        os.environ["REPRO_FAULT_PLAN"] = f"hang:fp={target},secs=5"
        t0 = time.monotonic()
        results = run_campaign(FSPECS, n_workers=2)
        assert time.monotonic() - t0 < 5  # the hang was not waited out
        assert results.stats.pool_failures == 1
        assert results.stats.retries == 0
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()

    def test_pool_hang_is_timed_out(self, full_db, monkeypatch, oracle):
        target = _ordered(FSPECS)[0].fingerprint
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "1")
        monkeypatch.setattr(campaign_executor, "RETRY_BACKOFF", 0.01)
        os.environ["REPRO_FAULT_PLAN"] = f"hang:fp={target},secs=30"
        t0 = time.monotonic()
        results = run_campaign(FSPECS, n_workers=2)
        assert time.monotonic() - t0 < 25
        for spec in FSPECS:
            assert results[spec] == oracle[spec.fingerprint], spec.label()


class TestInterruptAndResume:
    def test_serial_interrupt_flushes_and_resumes(
        self, full_db, monkeypatch, tmp_path, capsys, oracle
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        os.environ["REPRO_FAULT_PLAN"] = "interrupt:after=1"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(FSPECS, n_workers=1)
        assert "re-run the same command to resume" in capsys.readouterr().err
        stored = list(tmp_path.glob("*.json"))
        assert len(stored) == 1  # the completed result was flushed
        summary = journal_status(tmp_path)[0]
        assert summary["interrupted"] and not summary["complete"]
        assert summary["done"] == 1 and summary["remaining"] == 2

        # Resume under the *same* plan (the env a re-run would inherit):
        # the ledger says the interrupt already fired, so it must not
        # re-fire, and the stored result must not re-simulate.
        clear_result_memo()
        resumed = run_campaign(FSPECS, n_workers=1)
        assert resumed.stats.simulated == 2
        assert resumed.stats.cached == 1
        for spec in FSPECS:
            assert resumed[spec] == oracle[spec.fingerprint], spec.label()
        summary = journal_status(tmp_path)[0]
        assert summary["complete"] and summary["runs"] == 2
        assert summary["done"] == 3 and summary["remaining"] == 0

    def test_pool_interrupt_flushes_finished(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        os.environ["REPRO_FAULT_PLAN"] = "interrupt:after=1"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(FSPECS, n_workers=2)
        assert len(list(tmp_path.glob("*.json"))) >= 1
        os.environ.pop("REPRO_FAULT_PLAN")
        faults.reset()
        clear_result_memo()
        resumed = run_campaign(FSPECS, n_workers=1)
        assert resumed.stats.cached >= 1  # resumed from the store
        for spec in FSPECS:
            assert resumed[spec] == oracle[spec.fingerprint], spec.label()


class TestStoreFaultDifferential:
    def test_truncated_result_entry_quarantined_and_resimulated(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        os.environ["REPRO_FAULT_PLAN"] = "truncate:store=results"
        spec = FSPECS[0]
        run_campaign([spec])
        file = tmp_path / f"{spec.fingerprint}.json"
        with pytest.raises(ValueError):
            json.loads(file.read_text())  # the write really was truncated

        os.environ.pop("REPRO_FAULT_PLAN")
        faults.reset()
        clear_result_memo()
        second = run_campaign([spec])
        assert second.stats.simulated == 1
        assert second[spec] == oracle[spec.fingerprint]
        assert quarantine_stats()["files"] == 1
        assert json.loads(file.read_text())  # healthy entry republished

    def test_zero_byte_and_garbage_entries_quarantined(
        self, full_db, monkeypatch, tmp_path, oracle
    ):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        spec = FSPECS[0]
        file = tmp_path / f"{spec.fingerprint}.json"
        for damage in ("", "{not json", '{"rm_name": "rm3"'):
            file.write_text(damage)
            clear_result_memo()
            results = run_campaign([spec])
            assert results.stats.simulated == 1
            assert results[spec] == oracle[spec.fingerprint]
        assert quarantine_stats()["files"] == 3
        from repro.campaign import cache_stats

        assert cache_stats()["quarantined"] == 3


class TestConcurrentWriters:
    def test_same_fingerprint_writers_never_interleave(self, tmp_path):
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        fingerprint = "f" * 32
        texts = [
            json.dumps({"writer": w, "payload": w * 4096}) for w in ("a", "b")
        ]
        procs = [
            ctx.Process(
                target=write_entry_many,
                args=(str(tmp_path), fingerprint, text, 200),
            )
            for text in texts
        ]
        for p in procs:
            p.start()
        file = tmp_path / f"{fingerprint}.json"
        try:
            # Sample the entry while both writers race: every observation
            # must be one *complete* version, never a mix or a truncation.
            for _ in range(300):
                if file.exists():
                    assert file.read_text() in texts
        finally:
            for p in procs:
                p.join(timeout=30)
        assert all(p.exitcode == 0 for p in procs)
        assert file.read_text() in texts
        assert not list(tmp_path.glob("*.tmp"))  # atomic publish leaks none


class TestResumeAfterKill:
    def test_crash_exit_then_rerun_resumes_from_store(
        self, full_db, tmp_path
    ):
        """The headline robustness roundtrip: a campaign killed mid-run
        (injected worker crash, exit 13) resumes on re-run, re-simulating
        only what the store does not already hold."""
        store = tmp_path / "store"
        script = tmp_path / "campaign.py"
        script.write_text(
            "from repro.campaign import run_campaign\n"
            "from repro.campaign.spec import RunSpec\n"
            "APPS = ('mcf', 'omnetpp', 'libquantum', 'xalancbmk')\n"
            "specs = [\n"
            "    RunSpec(seed=2020, n_cores=4, rm_kind=k, model=m,\n"
            "            apps=APPS, horizon_intervals=2)\n"
            "    for k, m in [('idle', None), ('rm1', 'Model3'),\n"
            "                 ('rm3', 'Model3')]\n"
            "]\n"
            "results = run_campaign(specs, n_workers=1)\n"
            "print('simulated', results.stats.simulated)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env["REPRO_RESULT_CACHE"] = str(store)
        env["REPRO_FAULT_PLAN"] = "crash:spec=2"
        env["REPRO_FAULT_LEDGER"] = str(tmp_path / "ledger")
        env.pop("REPRO_CAMPAIGN_WORKERS", None)

        first = subprocess.run(
            [sys.executable, str(script)], env=env, cwd=str(REPO),
            capture_output=True, text=True, timeout=300,
        )
        assert first.returncode == faults.CRASH_EXIT_CODE, first.stderr
        assert len(list(store.glob("*.json"))) == 1  # progress survived
        summary = journal_status(store)[0]
        assert summary["done"] == 1 and not summary["complete"]

        second = subprocess.run(
            [sys.executable, str(script)], env=env, cwd=str(REPO),
            capture_output=True, text=True, timeout=300,
        )
        assert second.returncode == 0, second.stderr
        assert "simulated 2" in second.stdout  # resumed, not restarted
        assert len(list(store.glob("*.json"))) == 3
        summary = journal_status(store)[0]
        assert summary["complete"] and summary["runs"] == 2
        assert summary["done"] == 3 and summary["permanent_failures"] == 0


#: Events only the lease-based campaign fabric wrote.  Journals from
#: versions that had it must still summarise exactly as without them.
FABRIC_EVENTS = [
    {"event": "remote_begin", "t": 1.1, "transport": "file", "workers": 2,
     "pending": 3},
    {"event": "claim", "t": 1.2, "worker": "w1-123", "count": 2},
    {"event": "lease_expired", "t": 1.3, "worker": "w1-123", "fp": "bb"},
    {"event": "fallback", "t": 1.4, "reason": "no live workers",
     "count": 1},
    {"event": "worker_demoted", "t": 1.5, "worker": "w1-123", "strikes": 2},
]


class TestJournal:
    def test_campaign_id_is_order_insensitive_content_hash(self):
        assert campaign_id(["a", "b"]) == campaign_id(["b", "a"])
        assert campaign_id(["a", "b"]) != campaign_id(["a", "c"])

    def test_partial_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_line(path, json.dumps({"event": "begin", "unique": 2}))
        append_line(path, json.dumps({"event": "done", "fp": "aa"}))
        with open(path, "a") as fh:  # kill -9 mid-append
            fh.write('{"event": "done", "fp": "bb"')
        events = read_journal(path)
        assert [ev["event"] for ev in events] == ["begin", "done"]

    def test_summarize_totals_from_last_begin(self):
        events = [
            {"event": "begin", "t": 1.0, "planned": 5, "unique": 3,
             "cached": 0, "pending": 3, "workers": 1},
            {"event": "done", "t": 2.0, "fp": "aa", "attempt": 1, "s": 0.1},
            {"event": "failed", "t": 3.0, "fp": "bb", "attempt": 1,
             "error": "boom"},
            {"event": "interrupted", "t": 4.0, "done": 1, "remaining": 2},
            # resume: one spec now cached
            {"event": "begin", "t": 5.0, "planned": 5, "unique": 3,
             "cached": 1, "pending": 2, "workers": 1},
            {"event": "done", "t": 6.0, "fp": "bb", "attempt": 2, "s": 0.1},
            {"event": "done", "t": 7.0, "fp": "cc", "attempt": 1, "s": 0.1},
            {"event": "complete", "t": 8.0, "done": 2, "failed": 0},
        ]
        s = summarize_events(events)
        assert s["runs"] == 2 and s["unique"] == 3 and s["cached"] == 1
        assert s["done"] == 3 and s["remaining"] == 0
        assert s["failed_attempts"] == 1 and s["failed_specs"] == 1
        assert s["complete"] and not s["interrupted"]
        assert s["permanent_failures"] == 0 and s["updated"] == 8.0
        legacy = [
            {**ev, "worker": "w2-123"} if ev["event"] == "done" else ev
            for ev in events
        ]
        legacy[1:1] = FABRIC_EVENTS
        assert summarize_events(legacy) == s
        assert summarize_events([]) is None
        assert summarize_events([{"event": "done", "fp": "aa"}]) is None

    def test_journal_written_under_store(self, full_db, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        run_campaign(FSPECS[:1])
        files = list(journal_dir(tmp_path).glob("*.jsonl"))
        assert len(files) == 1
        events = read_journal(files[0])
        assert [ev["event"] for ev in events] == ["begin", "done", "complete"]

    def test_no_store_means_no_journal(self, full_db, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert CampaignJournal.for_campaign(None, ["a"]) is None
        run_campaign(FSPECS[:1])  # storeless campaigns still run

    def test_cli_status(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
        journal = CampaignJournal.for_campaign(tmp_path, ["a", "b"])
        journal.begin(planned=2, unique=2, cached=0, pending=2, workers=1)
        journal.done("a", 1, 0.5)
        journal.interrupted(done=1, remaining=1)
        assert main(["campaign", "--status"]) == 0
        out = capsys.readouterr().out
        assert f"campaign {journal.campaign}: 1/2 done" in out
        assert "interrupted (resumable)" in out

        journal.begin(planned=2, unique=2, cached=1, pending=1, workers=1)
        journal.done("b", 1, 0.5)
        journal.complete(done=1, failed=0)
        assert main(["campaign", "--status"]) == 0
        out = capsys.readouterr().out
        assert "2/2 done" in out and "complete" in out and "2 runs" in out

        for ev in FABRIC_EVENTS + [
            {"event": "done", "t": 1.6, "fp": "b", "attempt": 1, "s": 0.5,
             "worker": "w2-123"},
        ]:
            append_line(journal.path, json.dumps(ev))
        assert main(["campaign", "--status"]) == 0
        assert capsys.readouterr().out == out

    def test_cli_campaign_requires_status(self, capsys):
        from repro.cli import main

        assert main(["campaign"]) == 2
        assert "--status" in capsys.readouterr().err

    def test_cli_status_without_store(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        assert main(["campaign", "--status"]) == 0
        assert "unset" in capsys.readouterr().out


class TestPruneSafety:
    def _store(self, tmp_path):
        for i in range(3):
            f = tmp_path / f"{'e%031d' % i}.json"
            f.write_text("x" * 1024)
            os.utime(f, (1_000_000 + i, 1_000_000 + i))
        (tmp_path / "journal").mkdir()
        (tmp_path / "journal" / "c.jsonl").write_text('{"event": "begin"}\n')
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "bad.json").write_text("{corrupt")
        # Left behind by the deleted lease-based campaign fabric.
        (tmp_path / "fabric" / "tasks").mkdir(parents=True)
        (tmp_path / "fabric" / "tasks" / "t.json").write_text("{}")
        return tmp_path

    def test_prune_never_touches_bookkeeping(self, tmp_path):
        root = self._store(tmp_path)
        outcome = prune_lru(root, max_mb=1e-9, pattern="*")
        assert outcome["removed_files"] == 3  # every cache entry evicted
        assert (root / "journal" / "c.jsonl").exists()
        assert (root / "quarantine" / "bad.json").exists()
        assert (root / "fabric" / "tasks" / "t.json").exists()

    def test_dir_stats_excludes_bookkeeping(self, tmp_path):
        root = self._store(tmp_path)
        assert dir_stats(root, "*")["files"] == 3
        assert dir_stats(root / "quarantine", "*", protect=False)["files"] == 1

    def test_stat_race_tolerated(self, tmp_path, monkeypatch):
        self._store(tmp_path)
        real_stat = Path.stat

        def racy_stat(self, **kw):
            if self.name.startswith("e%031d" % 0):
                raise FileNotFoundError(str(self))
            return real_stat(self, **kw)

        monkeypatch.setattr(Path, "stat", racy_stat)
        outcome = prune_lru(tmp_path, max_mb=1e-9)
        assert outcome["removed_files"] == 2  # the vanished file is skipped

    def test_unlink_race_tolerated(self, tmp_path, monkeypatch):
        self._store(tmp_path)
        real_unlink = Path.unlink

        def racy_unlink(self, **kw):
            raise FileNotFoundError(str(self))

        monkeypatch.setattr(Path, "unlink", racy_unlink)
        outcome = prune_lru(tmp_path, max_mb=1e-9)
        # another pruner beat us to every file: zero *our* evictions, no
        # exception, and the loop still terminated
        assert outcome["removed_files"] == 0

    def test_quarantine_collision_gets_pid_suffix(self, tmp_path):
        (tmp_path / "a.json").write_text("{bad")
        (tmp_path / "quarantine").mkdir()
        (tmp_path / "quarantine" / "a.json").write_text("{older damage")
        target = quarantine_entry(tmp_path / "a.json", tmp_path)
        assert target is not None and str(os.getpid()) in target.name
        assert not (tmp_path / "a.json").exists()

    def test_quarantine_missing_entry_returns_none(self, tmp_path):
        assert quarantine_entry(tmp_path / "ghost.json", tmp_path) is None


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
        """``repro cache --prune`` must not evict results an in-flight
        (resumable) campaign journal depends on."""
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


class TestExecutorUnits:
    def test_backoff_schedule_is_deterministic(self):
        state = _ExecState(None)
        state.attempts["fp"] = 1
        assert state.backoff_delay("fp", 0.05) == 0.05
        state.attempts["fp"] = 3
        assert state.backoff_delay("fp", 0.05) == 0.2
        assert state.backoff_delay("other", 0.05) == 0.05

    def test_stats_summary_format_preserved(self):
        clean = CampaignStats(planned=5, unique=3, simulated=0, workers=1)
        assert "(0 simulated" in clean.summary()  # the CI grep contract
        assert "[" not in clean.summary()
        noisy = CampaignStats(
            planned=5, unique=3, simulated=3, workers=2,
            retries=2, pool_failures=1,
        )
        assert "[2 retries, 1 pool failures]" in noisy.summary()

    def test_knob_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPEC_TIMEOUT", raising=False)
        assert settings.resolve().spec_timeout is None
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "0")
        assert settings.resolve().spec_timeout is None
        monkeypatch.setenv("REPRO_SPEC_TIMEOUT", "2.5")
        assert settings.resolve().spec_timeout == 2.5
        # The retry schedule and pool tolerance are fixed constants.
        assert campaign_executor.SPEC_RETRIES == 2
        assert campaign_executor.RETRY_BACKOFF == 0.05
        assert campaign_executor.POOL_FAILURES == 3

    def test_deadline_raises_spec_timeout(self):
        from repro.campaign.executor import SpecTimeout, _deadline

        with pytest.raises(SpecTimeout):
            with _deadline(0.05):
                time.sleep(5)
        time.sleep(0.06)  # a cancelled timer must not fire later
