"""Tests of the benchmark's own code (run: python -m pytest perfbench/tests)."""

import json
import os
import re
import sys
from pathlib import Path

import pytest

import run
from probes import SELF_LAYERS, layer_of
from spans import Recorder, layer_totals, read_trace, self_times

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXPERIMENTS = [
    "table1", "table2", "fig1", "fig2", "fig6", "fig7", "fig8", "fig9",
    "overheads", "ext-sensitivity", "ext-alpha", "ext-scaling",
    "ext-alpha-scaling",
]


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_declared_names_are_well_formed_and_unique():
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_computed_layer_metric_names_are_declared(tmp_path):
    for name in ("setup", "run", "warm"):
        (tmp_path / name).mkdir()
    metrics, self_by_layer = run.layer_metrics(
        tmp_path / "setup", tmp_path / "run", tmp_path / "warm", 1, 2.5, EXPERIMENTS
    )
    declared = {m["name"] for m in _spec()["per_layer"]}
    for name in metrics:
        assert NAME.fullmatch(name), name
        assert name in declared, name
    assert self_by_layer["unattributed"] == pytest.approx(2.5)
    assert {f"self.{layer}_s" for layer in SELF_LAYERS} <= declared


def test_self_time_on_nested_spans():
    spans = [
        (0, None, "root", 0.0, 10.0),
        (1, 0, "a", 1.0, 4.0),
        (2, 1, "a.inner", 2.0, 3.0),
        (3, 0, "b", 3.5, 6.0),  # overlaps a: covered once
        (4, 0, "c", 9.0, 12.0),  # overruns root: clipped
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (6.0 - 1.0) - (10.0 - 9.0))
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(2.5)
    assert got[4] == pytest.approx(3.0)


def test_layer_totals_count_nested_same_layer_once():
    spans = [
        (0, None, "plan", 0.0, 4.0),
        (1, 0, "plan", 1.0, 2.0),
        (2, 0, "store.read", 2.0, 3.0),
        (3, 2, "plan", 2.5, 2.75),
        (4, None, "plan", 5.0, 6.0),
    ]
    assert layer_totals(spans, lambda n: n) == {"plan": 5.0, "store.read": 1.0}
    assert layer_of("render.ext-sensitivity") == "render"
    assert layer_of("microarch.leading") == "analysis"


def test_recorder_round_trip(tmp_path):
    rec = Recorder(tmp_path)
    rec.start("campaign")
    rec.start("store.read")
    rec.count("store.hits")
    rec.mark("streams", "x")
    rec.end()
    assert not list(tmp_path.iterdir())  # flushed only when the tree closes
    rec.end()
    rec.start("render.fig1")
    rec.count("store.hits", 2)
    rec.end()
    spans, counters, marks = read_trace(tmp_path)
    (pid_spans,) = spans.values()
    assert [s[2] for s in pid_spans] == ["store.read", "campaign", "render.fig1"]
    assert pid_spans[0][1] == pid_spans[1][0]
    assert counters == {"store.hits": 3}
    assert marks == {"streams": {"x"}}


def _write_csvs(csv_dir: Path, tamper: bool = False) -> None:
    csv_dir.mkdir()
    (csv_dir / "fig1.csv").write_text("app,energy\nmcf,0.125\n")
    (csv_dir / "fig2.csv").write_text("a,b\n1,2\n" if not tamper else "a,b\n1,3\n")


def test_tampered_csv_counts_as_failed(tmp_path):
    _write_csvs(tmp_path / "clean")
    _write_csvs(tmp_path / "tampered", tamper=True)
    reference = run.csv_digests(tmp_path / "clean")
    expected = ["fig1.csv", "fig2.csv"]
    ok = run.Run(pid=1, returncode=0, wall_s=1.0, peak_rss_mb=1.0, stderr="")
    tally = run.Tally()
    tally.record("clean", run.check_run(ok, reference, expected, reference, False))
    assert run.failed_frac(tally.failed, tally.attempted) == 0.0
    digests = run.csv_digests(tmp_path / "tampered")
    problems = run.check_run(ok, digests, expected, reference, False)
    assert problems == ["CSV digests differ: fig2.csv"]
    tally.record("tampered", problems)
    assert run.failed_frac(tally.failed, tally.attempted) == 0.5


def test_campaign_line_checks_warm_and_cold():
    line = "[campaign: 140 planned -> 108 unique runs (3 simulated, 105 cached) on 1 worker]"
    ok = run.Run(pid=1, returncode=0, wall_s=1.0, peak_rss_mb=1.0, stderr=line)
    assert run.check_run(ok, {}, [], None, warm=True) == ["warm run simulated 3 runs"]
    assert run.check_run(ok, {}, [], None, warm=False) == [
        "cold run found 105 cached runs"
    ]
    silent = run.Run(pid=1, returncode=0, wall_s=1.0, peak_rss_mb=1.0, stderr="")
    assert run.check_run(silent, {}, [], None, warm=False) == []
    assert run.check_run(silent, {}, [], None, warm=False, summary=True) == [
        "no [campaign: ...] summary line"
    ]


def test_store_checks(tmp_path):
    store = tmp_path / "store"
    assert run.check_store(run.store_entries(store), None, warm=False) == [
        "the result store is empty"
    ]
    store.mkdir()
    (store / "a.json").write_text("{}")
    (store / "b.json").write_text("[]")
    first = run.store_entries(store)
    assert run.check_store(first, None, warm=False) == []
    assert run.check_store(first, first, warm=True) == []
    (store / "b.json").write_text("[1]")  # a warm run rewrote an entry
    assert run.check_store(run.store_entries(store), first, warm=True) == [
        "warm run changed 1 store entries"
    ]
    (store / "b.json").unlink()
    assert run.check_store(run.store_entries(store), first, warm=False) == [
        "cold run stored other results than the first cold run"
    ]


def test_campaign_accounting():
    counters = {"plan.unique": 80.0, "campaign.pending": 80.0}
    assert run.check_accounting(counters, 80) == []
    assert run.check_accounting(dict(counters, **{"campaign.pending": 79.0}), 80) == [
        "cold run simulated 79 of 80 unique runs"
    ]
    assert run.check_accounting(counters, 3) == ["store holds 3 results for 80 unique runs"]
    assert "no campaign ran" in run.check_accounting({}, 0)


def test_host_speed_normalisation():
    assert run.host_probe() > 0
    ref = run.PROBE_REF_S
    # The host ran at half the reference speed on average.
    slow = run.Run(1, 0, wall_s=4.0, peak_rss_mb=1.0, stderr="", probes=[ref, 3 * ref])
    assert slow.norm_s == pytest.approx(4.0 * 0.5**run.PROBE_EXPONENT)
    steady = run.Run(1, 0, wall_s=4.0, peak_rss_mb=1.0, stderr="", probes=[ref, ref])
    assert steady.norm_s == pytest.approx(4.0)
    assert run.pinned_cpus(1) == [min(os.sched_getaffinity(0))]


def test_child_is_pinned_and_probed(tmp_path):
    cpu = run.pinned_cpus(1)
    code = "import os; print(sorted(os.sched_getaffinity(0)))"
    child = run.run_child(
        [sys.executable, "-c", code], dict(os.environ), tmp_path / "c.log", cpu
    )
    assert child.returncode == 0
    assert (tmp_path / "c.log").read_text().strip() == str(cpu)
    assert child.probes and child.norm_s > 0
    assert os.sched_getaffinity(0) != set(cpu) or os.cpu_count() == 1


def test_stray_repro_variables_are_stripped(tmp_path):
    base = {
        "PATH": "/usr/bin",
        "REPRO_LOCAL_MEMO": "/somewhere",
        "REPRO_SIM_WAVE": "native",
        "REPRO_BATCH_RUNS": "1",
        "REPRO_CAMPAIGN_WORKERS": "8",
        "REPRO_REMOTE": "1",
        "REPRO_FAULT_PLAN": "crash:spec=1",
        "REPRO_CACHE_DIR": "/shared/cache",
    }
    env = run.child_env(base, tmp_path)
    assert not [k for k in env if k.startswith("REPRO_")]
    assert env["PATH"] == "/usr/bin"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")
    assert env["TMPDIR"].startswith(str(tmp_path))
